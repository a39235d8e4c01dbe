// Package atomicfile commits a file whole or not at all.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write commits what encode writes as the file at path: the bytes go to a
// temporary file beside it, which is fsynced and only then renamed into
// place. A process or machine crash at any point leaves the previous file
// or the complete new one under path, never an empty or half-written one,
// and a concurrent reader sees one or the other. On an error the previous
// file is untouched and the temporary file is removed.
func Write(path string, encode func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
