package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"melissa/internal/tensor"
)

// Binary weight format used for server checkpoints (§3.1 fault tolerance).
// Version 2 splits metadata from data so the value slab serializes as one
// bulk write:
//
//	magic "MLNW" | version u32 | paramCount u32
//	per param: nameLen u32 | name | rows u32 | cols u32
//	all parameter values as one contiguous f32 (LE) blob, Params() order
const (
	weightsMagic   = "MLNW"
	weightsVersion = 2
)

// SaveWeights writes every parameter value of n to w in the checkpoint
// format: the data section is the value slab, which holds the values in
// Params() order, streamed through one chunk-sized staging buffer.
// Gradients are not persisted; optimizer state is serialized separately by
// the opt package.
func (n *Network) SaveWeights(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(weightsMagic); err != nil {
		return err
	}
	params := n.Params()
	if err := binary.Write(bw, binary.LittleEndian, uint32(weightsVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Value.Rows)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Value.Cols)); err != nil {
			return err
		}
	}
	if err := writeF32s(bw, n.flatValues); err != nil {
		return err
	}
	return bw.Flush()
}

// WeightsSize is the number of bytes SaveWeights writes, for callers that
// pre-size their destination.
func (n *Network) WeightsSize() int {
	size := len(weightsMagic) + 8 // version, param count
	for _, p := range n.Params() {
		size += 12 + len(p.Name) // name length, name, rows, cols
	}
	return size + 4*n.NumParams()
}

// LoadWeights reads a checkpoint previously written by SaveWeights into the
// network, which must have the identical architecture (same parameter
// names, order and shapes). It installs every value or, on an error, none:
// the block is decoded aside and copied in only once it has all arrived. A
// network that is only being loaded, with nothing to keep, is built by
// LoadMLP instead, which decodes straight into its slab.
func (n *Network) LoadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	if err := n.readHeader(br); err != nil {
		return err
	}
	vals := make([]float32, n.NumParams())
	if err := readF32s(br, vals); err != nil {
		return fmt.Errorf("nn: reading weights: %w", err)
	}
	copy(n.flatValues, vals)
	return nil
}

// readHeader reads the metadata section of a checkpoint and checks it
// against the network's parameters, leaving br at the value blob.
func (n *Network) readHeader(br *bufio.Reader) error {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic[:]) != weightsMagic {
		return fmt.Errorf("nn: bad magic %q", magic[:])
	}
	var version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != weightsVersion {
		return fmt.Errorf("nn: unsupported weights version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	params := n.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, network has %d", count, len(params))
	}
	for _, p := range params {
		name, err := readString(br)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: checkpoint param %q, network expects %q", name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.Value.Rows || int(cols) != p.Value.Cols {
			return fmt.Errorf("nn: param %q shape %dx%d, want %dx%d", name, rows, cols, p.Value.Rows, p.Value.Cols)
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("nn: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// f32Chunk is how many floats writeF32s and readF32s stage at a time: the
// value blob streams through one 16 KiB buffer however large the model.
const f32Chunk = 4096

// writeF32s writes data as little-endian f32s through one chunk-sized
// buffer.
func writeF32s(w io.Writer, data []float32) error {
	buf := make([]byte, 4*min(len(data), f32Chunk))
	for len(data) > 0 {
		k := min(len(data), f32Chunk)
		tensor.PutF32LE(buf, data[:k])
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		data = data[k:]
	}
	return nil
}

// readF32s fills dst with little-endian f32s read from r through one
// chunk-sized buffer. On a short read dst holds what arrived before it.
func readF32s(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*min(len(dst), f32Chunk))
	for len(dst) > 0 {
		k := min(len(dst), f32Chunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return err
		}
		tensor.GetF32LE(dst[:k], buf)
		dst = dst[k:]
	}
	return nil
}
