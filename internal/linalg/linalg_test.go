package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// vecEqual reports whether v and w agree element-wise within tol.
func vecEqual(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if !almostEqual(v[i], w[i], tol) {
			return false
		}
	}
	return true
}

// maxAbs returns the largest absolute element of v (0 when empty).
func maxAbs(v Vector) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// maxAbsDiff returns the largest absolute element-wise difference
// between two matrices of one shape.
func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i, v := range a.Data {
		worst = math.Max(worst, math.Abs(v-b.Data[i]))
	}
	return worst
}

// cloneMatrix returns a deep copy of m.
func cloneMatrix(m *Matrix) *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := SparseFromDense(Vector{4, 5, 6})
	if got := v.DotSparse(w); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vector{1}.DotSparse(SparseFromDense(Vector{1, 2}))
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 1}
	v.AddScaledSparse(2, SparseFromDense(Vector{3, 4}))
	if !vecEqual(v, Vector{7, 9}, 0) {
		t.Fatalf("axpy = %v", v)
	}
}

func TestVectorScaleAndNorm(t *testing.T) {
	v := Vector{3, 4}
	v.Scale(2)
	if !vecEqual(v, Vector{6, 8}, 0) {
		t.Fatalf("scale = %v", v)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3, 2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 2.5
			}
			if m.At(i, j) != want {
				t.Fatalf("identity(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1})
	if !vecEqual(got, Vector{6, 15}, 0) {
		t.Fatalf("mulvec = %v", got)
	}
}

func TestMatrixAddOuterScaled(t *testing.T) {
	m := Identity(2, 1)
	m.AddOuterScaled(2, Vector{1, 2})
	want := [][]float64{{3, 4}, {4, 9}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestQuadraticFormMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		m := randomSPD(rng, n)
		x := randomVec(rng, n)
		var explicit float64
		for i, mx := range m.MulVec(x) {
			explicit += x[i] * mx
		}
		got := m.QuadraticFormSparse(SparseFromDense(x))
		if !almostEqual(got, explicit, 1e-9*(1+math.Abs(explicit))) {
			t.Fatalf("quadratic form mismatch: %v vs %v", got, explicit)
		}
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		m := randomSPD(rng, n)
		l, err := m.Cholesky()
		if err != nil {
			t.Fatalf("cholesky failed: %v", err)
		}
		// reconstruct L L' and compare
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEqual(s, m.At(i, j), 1e-8*(1+math.Abs(m.At(i, j)))) {
					t.Fatalf("LL' (%d,%d) = %v, want %v", i, j, s, m.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := m.Cholesky(); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Cholesky(); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected inverse error for non-square matrix")
	}
}

func TestSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		m := randomSPD(rng, n)
		want := randomVec(rng, n)
		got, err := solveCholesky(m, m.MulVec(want))
		if err != nil {
			t.Fatalf("solve failed: %v", err)
		}
		if !vecEqual(got, want, 1e-6*(1+maxAbs(want))) {
			t.Fatalf("solve = %v, want %v", got, want)
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(8)
		m := randomSPD(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("inverse failed: %v", err)
		}
		// m * inv should be identity
		for i := 0; i < n; i++ {
			col := NewVector(n)
			for k := 0; k < n; k++ {
				col[k] = inv.At(k, i)
			}
			prod := m.MulVec(col)
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(prod[j], want, 1e-7) {
					t.Fatalf("m*inv (%d,%d) = %v", j, i, prod[j])
				}
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 4, 3})
	m.SymmetrizeInPlace()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("symmetrize = %v", m.Data)
	}
}

// --- RidgeState ---

func TestRidgeRecoverLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dim := 6
	theta := randomVec(rng, dim)
	rs := NewRidgeState(dim, 0.01)
	for i := 0; i < 4000; i++ {
		x := SparseFromDense(randomVec(rng, dim))
		rs.ObserveSparse(x, theta.DotSparse(x)+rng.NormFloat64()*0.01)
	}
	got := rs.Theta()
	if !vecEqual(got, theta, 0.05) {
		t.Fatalf("theta = %v, want %v", got, theta)
	}
}

func TestRidgeInverseStaysFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dim := 5
	rs := NewRidgeState(dim, 1)
	for i := 0; i < 1000; i++ {
		rs.ObserveSparse(SparseFromDense(randomVec(rng, dim)), rng.Float64())
	}
	exact, err := rs.V.Inverse()
	if err != nil {
		t.Fatalf("exact inverse failed: %v", err)
	}
	if d := maxAbsDiff(rs.VInv, exact); d > 1e-6 {
		t.Fatalf("incremental inverse drifted by %v", d)
	}
}

func TestRidgeConfidenceShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dim := 4
	rs := NewRidgeState(dim, 1)
	x := SparseFromDense(randomVec(rng, dim))
	before := width(rs, x)
	for i := 0; i < 50; i++ {
		rs.ObserveSparse(x, 1)
	}
	after := width(rs, x)
	if after >= before {
		t.Fatalf("confidence did not shrink: before %v, after %v", before, after)
	}
}

func TestRidgeForgetFullReset(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rs := NewRidgeState(3, 2)
	for i := 0; i < 20; i++ {
		rs.ObserveSparse(SparseFromDense(randomVec(rng, 3)), 1)
	}
	rs.Forget(1)
	fresh := NewRidgeState(3, 2)
	if d := maxAbsDiff(rs.V, fresh.V); d > 1e-9 {
		t.Fatalf("forget(1) did not reset V, diff %v", d)
	}
	if maxAbs(rs.B) > 1e-12 {
		t.Fatalf("forget(1) did not reset b: %v", rs.B)
	}
}

func TestRidgeForgetPartialKeepsDefiniteness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := NewRidgeState(4, 0.5)
	for i := 0; i < 30; i++ {
		rs.ObserveSparse(SparseFromDense(randomVec(rng, 4)), rng.Float64())
	}
	rs.Forget(0.5)
	if _, err := rs.V.Cholesky(); err != nil {
		t.Fatalf("V not positive definite after partial forget: %v", err)
	}
	// inverse must match
	exact, _ := rs.V.Inverse()
	if d := maxAbsDiff(rs.VInv, exact); d > 1e-8 {
		t.Fatalf("VInv stale after forget: %v", d)
	}
}

func TestRidgeForgetNoOp(t *testing.T) {
	rs := NewRidgeState(2, 1)
	rs.ObserveSparse(SparseFromDense(Vector{1, 0}), 3)
	before := cloneMatrix(rs.V)
	rs.Forget(0)
	if d := maxAbsDiff(rs.V, before); d != 0 {
		t.Fatalf("forget(0) changed V by %v", d)
	}
}

func TestRidgePanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dim", func() { NewRidgeState(0, 1) })
	mustPanic("zero lambda", func() { NewRidgeState(2, 0) })
	mustPanic("dim mismatch", func() { NewRidgeState(2, 1).ObserveSparse(SparseFromDense(Vector{1}), 0) })
}

// --- property-based tests ---

// Property: for any observation sequence, theta from the incremental state
// equals the closed-form ridge solution (V computed from scratch).
func TestQuickRidgeMatchesClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		n := rng.Intn(40)
		rs := NewRidgeState(dim, 1)
		v := Identity(dim, 1)
		b := NewVector(dim)
		for i := 0; i < n; i++ {
			x := randomVec(rng, dim)
			r := rng.NormFloat64()
			rs.ObserveSparse(SparseFromDense(x), r)
			v.AddOuterScaled(1, x)
			for j := range b {
				b[j] += r * x[j]
			}
		}
		want, err := solveCholesky(v, b)
		if err != nil {
			return false
		}
		return vecEqual(rs.Theta(), want, 1e-6*(1+maxAbs(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: confidence width is non-negative and zero only for the zero
// vector (V is positive definite).
func TestQuickConfidenceWidthPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		rs := NewRidgeState(dim, 0.5)
		for i := 0; i < rng.Intn(30); i++ {
			rs.ObserveSparse(SparseFromDense(randomVec(rng, dim)), rng.NormFloat64())
		}
		x := randomVec(rng, dim)
		w := width(rs, SparseFromDense(x))
		if w < 0 {
			return false
		}
		if maxAbs(x) > 1e-9 && w == 0 {
			return false
		}
		return width(rs, SparseFromDense(NewVector(dim))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky round-trips any random SPD matrix.
func TestQuickCholeskySPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		m := randomSPD(rng, n)
		l, err := m.Cholesky()
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- helpers ---

// width is one context's ConfidenceWidthBatch entry.
func width(rs *RidgeState, x SparseVector) float64 {
	out := make([]float64, 1)
	rs.ConfidenceWidthBatch([]SparseVector{x}, out)
	return out[0]
}

// solveCholesky solves m*x = b through a fresh Cholesky factorisation.
func solveCholesky(m *Matrix, b Vector) (Vector, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	return l.BackSolveTransposed(l.ForwardSolve(b)), nil
}

func randomVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomSPD builds A'A + I which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	m := Identity(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(k, i) * a.At(k, j)
			}
			m.Set(i, j, m.At(i, j)+s)
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
