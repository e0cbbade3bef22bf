package linalg

import (
	"math/rand"
	"testing"
)

// randSparse draws a context-shaped sparse vector: a few entries at
// random ascending indices. signed=false mimics the bandit's contexts
// (non-negative components); signed=true stresses the kernels harder.
func randSparse(rng *rand.Rand, dim int, signed bool) SparseVector {
	nnz := 1 + rng.Intn(9)
	if nnz > dim {
		nnz = dim
	}
	perm := rng.Perm(dim)[:nnz]
	s := SparseVector{Dim: dim, Idx: perm, Val: make([]float64, nnz)}
	s.Sort()
	for k := range s.Val {
		v := rng.Float64() + 0.01
		if signed && rng.Intn(2) == 0 {
			v = -v
		}
		s.Val[k] = v
	}
	return s
}

func randMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// denseDot is v·w written out over every index in ascending order.
func denseDot(v, w Vector) float64 {
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// denseQuad is x' m x written out over every index in ascending order.
func denseQuad(m *Matrix, x Vector) float64 {
	n := len(x)
	var total float64
	for i := 0; i < n; i++ {
		total += x[i] * denseDot(m.Data[i*n:(i+1)*n], x)
	}
	return total
}

// TestSparseKernelsBitIdentical is the core equivalence property: every
// sparse kernel must produce bit-identical results to the same
// arithmetic written out over the dense vector x.Dense() in ascending
// index order (MulVec and AddOuterScaled are the dense kernels the ridge
// also runs) — sparsity is an optimisation, not a behaviour change.
func TestSparseKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		dim := 5 + rng.Intn(60)
		signed := trial%2 == 1
		s := randSparse(rng, dim, signed)
		d := s.Dense()
		m := randMatrix(rng, dim)

		w := make(Vector, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if got, want := w.DotSparse(s), denseDot(w, d); got != want {
			t.Fatalf("trial %d: DotSparse %v != dense dot %v", trial, got, want)
		}
		if got, want := m.QuadraticFormSparse(s), denseQuad(m, d); got != want {
			t.Fatalf("trial %d: QuadraticFormSparse %v != dense quadratic form %v", trial, got, want)
		}
		mv, mvd := m.MulVecSparse(s), m.MulVec(d)
		for i := range mv {
			if mv[i] != mvd[i] {
				t.Fatalf("trial %d: MulVecSparse[%d] %v != %v", trial, i, mv[i], mvd[i])
			}
		}

		alpha := rng.NormFloat64()
		ms, md := cloneMatrix(m), cloneMatrix(m)
		ms.AddOuterScaledSparse(alpha, s)
		md.AddOuterScaled(alpha, d)
		for i := range ms.Data {
			if ms.Data[i] != md.Data[i] {
				t.Fatalf("trial %d: AddOuterScaledSparse data[%d] %v != %v", trial, i, ms.Data[i], md.Data[i])
			}
		}

		vs, vd := append(Vector(nil), w...), append(Vector(nil), w...)
		vs.AddScaledSparse(alpha, s)
		for i := range vd {
			vd[i] += alpha * d[i]
		}
		for i := range vs {
			if vs[i] != vd[i] {
				t.Fatalf("trial %d: AddScaledSparse[%d] %v != %v", trial, i, vs[i], vd[i])
			}
		}
	}
}

// observeDense is the Sherman–Morrison update of ObserveSparse written
// out over a dense context.
func observeDense(rs *RidgeState, x Vector, reward float64) {
	rs.V.AddOuterScaled(1, x)
	for i := range x {
		rs.B[i] += reward * x[i]
	}
	u := rs.VInv.MulVec(x)
	rs.VInv.AddOuterScaled(-1/(1+denseDot(x, u)), u)
	rs.afterRank1()
}

// TestRidgeSparseObserveBitIdentical drives two ridge states through the
// same observation stream — one through observeDense, one through
// ObserveSparse — across rebases and a mid-stream Forget, asserting the
// full state (V, VInv, B) and the confidence widths stay bit-identical.
func TestRidgeSparseObserveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const dim = 24
	dense := NewRidgeState(dim, 0.25)
	sparse := NewRidgeState(dim, 0.25)
	check := func(step int) {
		t.Helper()
		for i := range dense.V.Data {
			if dense.V.Data[i] != sparse.V.Data[i] {
				t.Fatalf("step %d: V diverged at %d: %v vs %v", step, i, dense.V.Data[i], sparse.V.Data[i])
			}
			if dense.VInv.Data[i] != sparse.VInv.Data[i] {
				t.Fatalf("step %d: VInv diverged at %d: %v vs %v", step, i, dense.VInv.Data[i], sparse.VInv.Data[i])
			}
		}
		for i := range dense.B {
			if dense.B[i] != sparse.B[i] {
				t.Fatalf("step %d: B diverged at %d: %v vs %v", step, i, dense.B[i], sparse.B[i])
			}
		}
	}
	for step := 0; step < 600; step++ {
		x := randSparse(rng, dim, false)
		reward := rng.NormFloat64() * 10
		observeDense(dense, x.Dense(), reward)
		sparse.ObserveSparse(x, reward)
		check(step)
		if step == 250 {
			dense.Forget(0.5)
			sparse.Forget(0.5)
			check(step)
		}
		probe := randSparse(rng, dim, false)
		wd := widthFromQuad(denseQuad(dense.VInv, probe.Dense()))
		ws := width(sparse, probe)
		if wd != ws {
			t.Fatalf("step %d: widths diverged: %v vs %v", step, wd, ws)
		}
	}
	if dense.Updates() != sparse.Updates() {
		t.Fatalf("update counts diverged: %d vs %d", dense.Updates(), sparse.Updates())
	}
}

func TestSparseVectorUtils(t *testing.T) {
	v := Vector{0, 3, 0, 0, -2, 0, 1}
	s := SparseFromDense(v)
	if len(s.Idx) != 3 || s.Dim != 7 {
		t.Fatalf("nnz=%d dim=%d", len(s.Idx), s.Dim)
	}
	d := s.Dense()
	for i := range v {
		if d[i] != v[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, d[i], v[i])
		}
	}
	// Sort restores ascending order from arbitrary insertion order.
	u := SparseVector{Dim: 10, Idx: []int{7, 2, 9, 0}, Val: []float64{7, 2, 9, 0.5}}
	u.Sort()
	for k := 1; k < len(u.Idx); k++ {
		if u.Idx[k-1] >= u.Idx[k] {
			t.Fatalf("Sort left indices unsorted: %v", u.Idx)
		}
	}
	for k, i := range u.Idx {
		want := map[int]float64{7: 7, 2: 2, 9: 9, 0: 0.5}[i]
		if u.Val[k] != want {
			t.Fatalf("Sort lost pairing: idx %d -> %v", i, u.Val[k])
		}
	}
}

func TestSparseKernelDimChecks(t *testing.T) {
	s := SparseVector{Dim: 3, Idx: []int{0}, Val: []float64{1}}
	m := NewMatrix(2, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DotSparse", func() { NewVector(2).DotSparse(s) })
	mustPanic("AddScaledSparse", func() { NewVector(2).AddScaledSparse(1, s) })
	mustPanic("QuadraticFormSparse", func() { m.QuadraticFormSparse(s) })
	mustPanic("MulVecSparse", func() { m.MulVecSparse(s) })
	mustPanic("AddOuterScaledSparse", func() { m.AddOuterScaledSparse(1, s) })
	mustPanic("ObserveSparse", func() { NewRidgeState(2, 1).ObserveSparse(s, 0) })
}
