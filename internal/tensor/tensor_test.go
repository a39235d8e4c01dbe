package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v, want 7", row[2])
	}
	row[0] = 3 // Row must alias storage.
	if m.At(1, 0) != 3 {
		t.Fatal("Row does not alias matrix storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Fill(1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	m.AddRowVector([]float32{1, 2, 3})
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != float32(c+1) {
				t.Fatalf("AddRowVector: got %v", m.Data)
			}
		}
	}
}

func TestSumRowsInto(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 10, 20, 30})
	dst := make([]float32, 3)
	m.SumRowsInto(dst)
	want := []float32{11, 22, 33}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("SumRowsInto: got %v want %v", dst, want)
		}
	}
	// Accumulates rather than overwrites.
	m.SumRowsInto(dst)
	if dst[0] != 22 {
		t.Fatalf("SumRowsInto should accumulate, got %v", dst)
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shape %dx%d", tr.Rows, tr.Cols)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 1, 7}, {16, 16, 16}, {33, 17, 9}, {64, 128, 32}}
	for _, s := range shapes {
		a := randMatrix(rng, s[0], s[1])
		b := randMatrix(rng, s[1], s[2])
		got := New(s[0], s[2])
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		if d := got.MaxAbsDiff(want); d > 1e-3 {
			t.Fatalf("shape %v: max diff %v", s, d)
		}
	}
}

func TestMatMulOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randMatrix(rng, 4, 5)
	b := randMatrix(rng, 5, 6)
	dst := New(4, 6)
	dst.Fill(99)
	MatMul(dst, a, b)
	want := naiveMatMul(a, b)
	if d := dst.MaxAbsDiff(want); d > 1e-3 {
		t.Fatalf("MatMul must overwrite dst; diff %v", d)
	}
}

func TestMatMulABTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randMatrix(rng, 7, 11)
	b := randMatrix(rng, 9, 11)
	got := New(7, 9)
	MatMulABT(got, a, b)
	want := naiveMatMul(a, b.Transpose())
	if d := got.MaxAbsDiff(want); d > 1e-3 {
		t.Fatalf("max diff %v", d)
	}
}

func TestMatMulATBAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := randMatrix(rng, 11, 5)
	b := randMatrix(rng, 11, 6)
	got := New(5, 6)
	got.Fill(1)
	MatMulATBAdd(got, a, b)
	want := naiveMatMul(a.Transpose(), b)
	for i := range want.Data {
		want.Data[i]++
	}
	if d := got.MaxAbsDiff(want); d > 1e-3 {
		t.Fatalf("max diff %v", d)
	}
}

func TestMatMulDimPanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(New(2, 2), New(2, 3), New(4, 2)) },
		func() { MatMul(New(3, 2), New(2, 3), New(3, 2)) },
		func() { MatMulABT(New(2, 2), New(2, 3), New(2, 4)) },
		func() { MatMulATBAdd(New(2, 2), New(3, 2), New(4, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance, exercised by quick.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 2 + int(seed%6)
		a, b, c := randMatrix(rng, n, n), randMatrix(rng, n, n), randMatrix(rng, n, n)
		ab, bc := New(n, n), New(n, n)
		MatMul(ab, a, b)
		MatMul(bc, b, c)
		left, right := New(n, n), New(n, n)
		MatMul(left, ab, c)
		MatMul(right, a, bc)
		return left.MaxAbsDiff(right) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyDotScal(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{10, 20, 30, 40, 50}
	Axpy(2, x, y)
	want := []float32{12, 24, 36, 48, 60}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy: got %v want %v", y, want)
		}
	}
	if d := Dot(x, x); d != 55 {
		t.Fatalf("Dot = %v, want 55", d)
	}
	Scal(0.5, y)
	if y[0] != 6 {
		t.Fatalf("Scal: got %v", y)
	}
	if s := SumF64(x); s != 15 {
		t.Fatalf("SumF64 = %v", s)
	}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, make([]float32, 3), make([]float32, 4))
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		n := 1 + int(seed%32)
		x, y := make([]float32, n), make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
		}
		if math.Abs(float64(Dot(x, y)-Dot(y, x))) > 1e-3 {
			return false
		}
		x2 := make([]float32, n)
		copy(x2, x)
		Scal(3, x2)
		return math.Abs(float64(Dot(x2, y)-3*Dot(x, y))) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randMatrix(rng, 256, 256)
	y := randMatrix(rng, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(256 * 256 * 256 * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

// The functions below are test code: no binary calls them. Matrix helpers,
// and the package-level GEMM, Adam and elementwise entry points, each the
// inline (nil-team) form of what a trainer or replica calls on its team.

// FromSlice wraps data as a rows×cols matrix without copying. The slice
// length must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { clear(m.Data) }

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// AddRowVector adds the vector v (length Cols) to every row of m: the
// unfused bias pass the GEMM's bias epilogues are checked against.
func (m *Matrix) AddRowVector(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		Add(m.Row(r), v)
	}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and other. Useful in tests.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.mustSameShape(other)
	var max float64
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(other.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// MatMul computes dst = a·b. dst must be preallocated with shape
// a.Rows×b.Cols and must not alias a or b.
func MatMul(dst, a, b *Matrix) { (*Team)(nil).MatMulEpilogue(dst, a, b, nil, EpNone) }

// MatMulBias computes dst = a·b + bias with the bias row (length b.Cols)
// broadcast over the batch, fused into the GEMM epilogue — the dense-layer
// forward without the extra full pass of AddRowVector.
func MatMulBias(dst, a, b *Matrix, bias []float32) {
	(*Team)(nil).MatMulEpilogue(dst, a, b, bias, EpBias)
}

// MatMulBiasReLU computes dst = relu(a·b + bias) in one fused pass.
func MatMulBiasReLU(dst, a, b *Matrix, bias []float32) {
	(*Team)(nil).MatMulEpilogue(dst, a, b, bias, EpBiasReLU)
}

// MatMulABT computes dst = a·bᵀ. dst must have shape a.Rows×b.Rows. Used in
// backprop for dX = dY·Wᵀ without materializing the transpose.
func MatMulABT(dst, a, b *Matrix) { (*Team)(nil).MatMulABT(dst, a, b) }

// MatMulATBAdd computes dst += aᵀ·b. dst must have shape a.Cols×b.Cols. The
// accumulate form matches gradient accumulation for dW += Xᵀ·dY.
func MatMulATBAdd(dst, a, b *Matrix) { (*Team)(nil).MatMulATBAdd(dst, a, b) }

// AdamStep applies one Adam update over flat parameter slabs with the
// semantics stated in the package comment ("Adam update"); alpha is the
// bias-corrected step size. All four slices must have equal length. The
// pass is a single sweep over the slabs, inline.
func AdamStep(values, grads, m, v []float32, alpha, beta1, beta2, eps float32) {
	(*Team)(nil).AdamStep(values, grads, m, v, alpha, beta1, beta2, eps)
}

// SumF64 returns the sum of x accumulated in float64.
func SumF64(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// Scal multiplies every element of x by a in place.
func Scal(a float32, x []float32) {
	for i := range x {
		x[i] *= a
	}
}
