package melissa

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"melissa/internal/nn"
)

// Surrogate is a trained direct deep surrogate of a simulation problem:
// given the design parameters and a physical time, it predicts the full
// flattened field in one forward pass (§2.1 "direct models":
// f_θ(X, t) ≈ u_t^X).
//
// Its weights are immutable after construction. Predict answers one query
// and is safe for concurrent use; a caller that queries in volume keeps a
// Replica (NewReplica) per goroutine and answers fused batches through
// Replica.PredictBatchRaw, as melissa-serve's batch workers do.
type Surrogate struct {
	net  *nn.Network
	norm Normalizer
	meta Meta
}

// Meta describes a surrogate's provenance: the problem it models and the
// architecture hyperparameters needed to rebuild the network. Save embeds
// it in checkpoints so LoadSurrogate needs no further arguments.
type Meta struct {
	Problem     string
	GridN       int
	StepsPerSim int
	Dt          float64
	Hidden      []int
	Seed        uint64
}

func surrogateMeta(cfg Config, prob Problem) Meta {
	return Meta{
		Problem:     prob.Name(),
		GridN:       cfg.GridN,
		StepsPerSim: cfg.StepsPerSim,
		Dt:          cfg.Dt,
		Hidden:      append([]int(nil), cfg.Hidden...),
		Seed:        cfg.Seed,
	}
}

// newSurrogate takes ownership of net, an inference-only network (no
// gradient slab): a Clone, CloneShared or loaded network, so a result kept
// after training pins neither its trainer's gradients nor its activations.
func newSurrogate(net *nn.Network, norm Normalizer, meta Meta) *Surrogate {
	return &Surrogate{net: net, norm: norm, meta: meta}
}

// SurrogateFromNetwork wraps a trained network in a servable Surrogate. The
// weights are snapshotted (one copy of the value slab, no gradients), so
// the caller may keep training the network afterwards — this is the
// training→serving bridge: call it at a synchronized step boundary (e.g.
// the trainer's OnBatchEnd hook), then PublishSurrogate the result for a
// watching melissa-serve to hot-load.
// cfg must carry the Problem and the architecture fields the network was
// built with (GridN, StepsPerSim, Dt, Hidden, Seed).
func SurrogateFromNetwork(net *nn.Network, cfg Config) (*Surrogate, error) {
	if cfg.Problem == nil {
		return nil, fmt.Errorf("melissa: SurrogateFromNetwork needs cfg.Problem")
	}
	norm := cfg.Problem.Normalizer(cfg)
	if got := net.NumParams(); got == 0 {
		return nil, fmt.Errorf("melissa: SurrogateFromNetwork got an empty network")
	}
	return newSurrogate(net.Clone(), norm, surrogateMeta(cfg, cfg.Problem)), nil
}

// Meta returns the surrogate's provenance record.
func (s *Surrogate) Meta() Meta { return s.meta }

// ParamDim returns the number of design parameters Predict expects.
func (s *Surrogate) ParamDim() int { return s.norm.InputDim() - 1 }

// OutputDim returns the flattened field length Predict returns.
func (s *Surrogate) OutputDim() int { return s.norm.OutputDim() }

// NumParams returns the number of learnable parameters.
func (s *Surrogate) NumParams() int { return s.net.NumParams() }

// Predict returns the physical field (flattened, problem geometry) at
// physical time t for the given design parameters (in the problem's
// canonical order). It panics if len(params) differs from ParamDim. Each
// call runs on a one-row Replica of its own, so concurrent calls share
// nothing but the weights.
func (s *Surrogate) Predict(params []float64, t float64) []float64 {
	p := make([]float32, len(params))
	for i, v := range params {
		p[i] = float32(v)
	}
	out := make([]float64, s.OutputDim())
	err := s.NewReplica(1).PredictBatchRaw(1,
		func(int) ([]float32, float32) { return p, float32(t) },
		func(_ int, field []float32) {
			for i, v := range field {
				out[i] = float64(v)
			}
		})
	if err != nil {
		panic(err)
	}
	return out
}

// Checkpoint metadata block: it precedes the nn weight payload so saved
// surrogates are self-describing —
//
//	magic "MLSG" | version u32 | problem string | gridN u32 | steps u32 |
//	dt f64 | hiddenCount u32 | hidden u32... | seed u64 | nn weights
//
// A weight payload without the block (a raw nn weight file, or one from
// before the metadata header) does not load: there is no loader that takes
// the architecture explicitly, and loadSurrogate refuses it. Wrap the
// network that holds such weights with SurrogateFromNetwork instead.
const (
	surrogateMagic   = "MLSG"
	surrogateVersion = 1
)

// Save writes the surrogate to w: the metadata block followed by the
// network weights, so LoadSurrogate can reconstruct it without any
// architecture arguments.
func (s *Surrogate) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(surrogateMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(surrogateVersion)); err != nil {
		return err
	}
	if err := writeString(bw, s.meta.Problem); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(s.meta.GridN), uint32(s.meta.StepsPerSim)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(s.meta.Dt)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(s.meta.Hidden))); err != nil {
		return err
	}
	for _, h := range s.meta.Hidden {
		if err := binary.Write(bw, binary.LittleEndian, uint32(h)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, s.meta.Seed); err != nil {
		return err
	}
	if err := s.net.SaveWeights(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// maxSurrogateParams bounds what LoadSurrogate reads from a stream of
// unknown length: 2³⁰ parameters (4 GiB of weights), far above any real
// surrogate.
const maxSurrogateParams = 1 << 30

// LoadSurrogate reconstructs a surrogate from a checkpoint written by Save.
// The embedded metadata names the problem (resolved through the registry)
// and the architecture, so no further arguments are needed. The weight block
// is read in full before the network is built (see loadSurrogate);
// LoadSurrogateFile knows the file's length and skips that copy.
func LoadSurrogate(r io.Reader) (*Surrogate, error) { return loadSurrogate(r, -1) }

// loadSurrogate is LoadSurrogate over a stream with present bytes behind it
// (negative: unknown). The header of a 60-byte file can describe terabytes
// of network, and building one allocates its value slab before a weight is
// read, so nothing is built until the weights it describes are known to be
// there. The weights are then decoded straight into that slab (nn.LoadMLP):
// a load allocates the model once, draws no initial weight and builds no
// gradient slab.
func loadSurrogate(r io.Reader, present int64) (*Surrogate, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("melissa: reading checkpoint magic: %w", err)
	}
	if string(magic) != surrogateMagic {
		return nil, fmt.Errorf("melissa: checkpoint has no metadata block (magic %q); a raw weight payload is wrapped with SurrogateFromNetwork", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != surrogateVersion {
		return nil, fmt.Errorf("melissa: unsupported surrogate checkpoint version %d", version)
	}
	probName, err := readString(br)
	if err != nil {
		return nil, err
	}
	var gridN, steps uint32
	if err := binary.Read(br, binary.LittleEndian, &gridN); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &steps); err != nil {
		return nil, err
	}
	if gridN < 1 || gridN > 1<<16 {
		return nil, fmt.Errorf("melissa: unreasonable checkpoint grid size %d", gridN)
	}
	if steps < 1 || steps > 1<<30 {
		return nil, fmt.Errorf("melissa: unreasonable checkpoint step count %d", steps)
	}
	var dtBits uint64
	if err := binary.Read(br, binary.LittleEndian, &dtBits); err != nil {
		return nil, err
	}
	dt := math.Float64frombits(dtBits)
	if !validDt(dt) {
		return nil, fmt.Errorf("melissa: unreasonable checkpoint time step %g", dt)
	}
	var hiddenCount uint32
	if err := binary.Read(br, binary.LittleEndian, &hiddenCount); err != nil {
		return nil, err
	}
	if hiddenCount > 1<<10 {
		return nil, fmt.Errorf("melissa: unreasonable hidden layer count %d", hiddenCount)
	}
	hidden := make([]int, hiddenCount)
	for i := range hidden {
		var h uint32
		if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
			return nil, err
		}
		if h < 1 || h > 1<<20 {
			return nil, fmt.Errorf("melissa: unreasonable checkpoint hidden width %d", h)
		}
		hidden[i] = int(h)
	}
	var seed uint64
	if err := binary.Read(br, binary.LittleEndian, &seed); err != nil {
		return nil, err
	}

	prob, err := ProblemByName(probName)
	if err != nil {
		return nil, fmt.Errorf("melissa: checkpoint problem: %w", err)
	}
	meta := Meta{
		Problem:     probName,
		GridN:       int(gridN),
		StepsPerSim: int(steps),
		Dt:          dt,
		Hidden:      hidden,
		Seed:        seed,
	}
	cfg := Config{
		Problem:     prob,
		GridN:       meta.GridN,
		StepsPerSim: meta.StepsPerSim,
		Dt:          meta.Dt,
		Hidden:      hidden,
		Seed:        seed,
	}
	norm := prob.Normalizer(cfg)
	var weights io.Reader = br
	if present < 0 {
		// ReadAll grows with the bytes that arrive, not with what the
		// header claims.
		block, err := io.ReadAll(io.LimitReader(br, 4*maxSurrogateParams))
		if err != nil {
			return nil, fmt.Errorf("melissa: reading checkpoint weights: %w", err)
		}
		present, weights = int64(len(block)), bytes.NewReader(block)
	}
	if !mlpFits(norm.InputDim(), hidden, norm.OutputDim(), present/4) {
		return nil, fmt.Errorf("melissa: checkpoint describes a larger network than the %d bytes present can hold", present)
	}
	net, err := nn.LoadMLP(weights, norm.InputDim(), hidden, norm.OutputDim())
	if err != nil {
		return nil, err
	}
	return newSurrogate(net, norm, meta), nil
}

// mlpFits reports whether the MLP in → hidden... → out has at most budget
// weights and biases. Each layer is checked by division before it is
// multiplied out, so no width a header or a problem supplies can overflow.
func mlpFits(in int, hidden []int, out int, budget int64) bool {
	prev := int64(in)
	for i := 0; i <= len(hidden); i++ {
		width := int64(out)
		if i < len(hidden) {
			width = int64(hidden[i])
		}
		if prev < 0 || width < 0 || width > budget/(prev+1) {
			return false
		}
		budget -= (prev + 1) * width
		prev = width
	}
	return true
}

// LoadSurrogateFile reads a self-describing surrogate checkpoint from path.
func LoadSurrogateFile(path string) (*Surrogate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	present := int64(-1) // a pipe or device has no length to check against
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		present = fi.Size()
	}
	return loadSurrogate(f, present)
}

// writeString / readString mirror the nn checkpoint string encoding.
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
		return "", fmt.Errorf("melissa: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
