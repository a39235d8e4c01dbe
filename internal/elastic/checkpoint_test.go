package elastic

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"
)

// FuzzStateFiles feeds the shard and manifest decoders truncated and
// garbage files — what a crash mid-write, a full disk or a stray process
// can leave in the group directory. An error is fine; a panic is not.
func FuzzStateFiles(f *testing.F) {
	var shard, oldShard, manifest bytes.Buffer
	st := State{Epoch: 1, Batch: 4, Samples: 16, Weights: []byte{1, 2}, OptState: []byte{3}, App: []byte{4, 5}}
	if err := gob.NewEncoder(&shard).Encode(&st); err != nil {
		f.Fatal(err)
	}
	// A shard written before the buffer snapshot moved into App carries two
	// fields State no longer has; gob skips what the receiver lacks.
	type oldSample struct {
		SimID, Step   int
		Input, Output []float32
	}
	if err := gob.NewEncoder(&oldShard).Encode(struct {
		Epoch, Batch, Samples int
		Weights, OptState     []byte
		BufSeen, BufUnseen    []oldSample
		App                   []byte
	}{Epoch: 1, Batch: 4, Samples: 16, Weights: []byte{1, 2}, OptState: []byte{3}, App: []byte{4, 5},
		BufUnseen: []oldSample{{SimID: 1, Step: 2, Input: []float32{1}, Output: []float32{2, 3}}}}); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&manifest).Encode(&Manifest{Epoch: 1, Batch: 4, Members: []int{0, 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(shard.Bytes())
	f.Add(shard.Bytes()[:shard.Len()/2])
	f.Add(oldShard.Bytes())
	f.Add(manifest.Bytes())
	f.Add(manifest.Bytes()[:manifest.Len()-1])
	f.Add([]byte{})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{shardPath(dir, 0, 4), manifestPath(dir)} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if st, err := loadShard(dir, 0, 4); err == nil && st == nil {
			t.Fatal("loadShard returned neither a state nor an error")
		}
		loadManifest(dir)
	})
}
