package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// format. For slab-fused networks the data section is a single bulk write
// of the value slab. Gradients are not persisted; optimizer state is
// serialized separately by the opt package.
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
	if n.flatValues != nil {
		if err := writeF32s(bw, n.flatValues); err != nil {
			return err
		}
	} else {
		for _, p := range params {
			if err := writeF32s(bw, p.Value.Data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadWeights reads a checkpoint previously written by SaveWeights into the
// network, which must have the identical architecture (same parameter
// names, order and shapes).
func (n *Network) LoadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != weightsMagic {
		return fmt.Errorf("nn: bad magic %q", magic)
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
	if n.flatValues != nil {
		return readF32s(br, n.flatValues)
	}
	for _, p := range params {
		if err := readF32s(br, p.Value.Data); err != nil {
			return err
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

func writeF32s(w io.Writer, data []float32) error {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readF32s(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}
