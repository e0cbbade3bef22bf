package linalg

import (
	"fmt"
	"math"
)

// CholState is the factored ridge backend: instead of an explicit
// inverse it maintains the lower-triangular Cholesky factor L of the
// scatter matrix V_t = lambda*I + sum x x' directly, via the classic
// rank-1 cholupdate (one Givens-style rotation per column). The
// coefficient estimate theta = V^{-1} b is computed by two triangular
// solves and each confidence width sqrt(x' V^{-1} x) = ||L^{-1} x|| by
// one.
//
// Because no inverse is ever formed, there is nothing to drift: every
// operation is backward-stable on the factor, so the Sherman–Morrison
// path's drift scoring and periodic exact rebases have no counterpart
// here. The trade-off is scoring cost — a triangular solve is O(d²)
// where the explicit-inverse sparse quadratic form is O(nnz²) — which
// is why BackendSM remains the default and BackendChol is the
// robustness-first alternative for high-dimensional or long-horizon
// runs.
//
// V is positive definite by construction (lambda > 0, rank-1 additions
// only), so the diagonal of L stays strictly positive: cholupdate's
// rotations satisfy r = sqrt(L[k][k]² + w[k]²) >= L[k][k], and Forget
// scales by sqrt(1-gamma) > 0 before topping the prior back up.
type CholState struct {
	Dim    int
	L      *Matrix // lower-triangular Cholesky factor, V = L L'
	B      Vector  // response accumulator
	Lambda float64

	updates int

	// theta memoises V^{-1} b between observations, mirroring the
	// Sherman–Morrison backend's cache.
	theta      Vector
	thetaValid bool

	work       Vector      // rank-1 input w, loaded by Observe/ObserveSparse/Forget
	rotc, rots Vector      // per-column rotation coefficients of the fused cholupdate
	rotk       []int       // columns with genuine (non-identity) rotations, in order
	scratch    cholScratch // scoring working memory

	// profile[i] is the skyline bound of row i: every L[i][k] with
	// k < profile[i] is an exact stored +0, untouched since the
	// sqrt(lambda)*I initialisation. Sparse contexts couple only the
	// dimensions they share an observation with, so most rows of L never
	// fill left of their own feature block and the triangular solves can
	// skip the structural zeros (see quadSolve for the bit-identity
	// argument). Maintained in O(nnz) per observation by cholUpdate:
	// a rank-1 update with first non-zero row k0 writes row r only at
	// rotation columns >= k0, and those writes can be non-zero only when
	// w[r] != 0, so profile[r] = min(profile[r], k0) for exactly those
	// rows. Rows with w[r] == 0 write +0 over +0 left of their old bound
	// (c*0 + s*0 = +0), so the stored bits below the profile never
	// change.
	profile []int
}

// cholScratch is the scoring working memory of a CholState.
type cholScratch struct {
	z    Vector // triangular-solve intermediate L^{-1} x
	xbuf Vector // densified sparse context (kept all-zero between uses)

	// panel is the blocked batch-solve working set: cholPanelWidth
	// right-hand-side columns forward-substituted through L in one pass
	// (see quadPanel). Row-major with a fixed cholPanelWidth stride;
	// lazily sized dim*cholPanelWidth.
	panel Vector
	// q accumulates the per-column quadratic forms of one panel.
	q [cholPanelWidth]float64
	// order and cnt are the counting-sort scratch that groups a batch's
	// arms into panels by first non-zero row.
	order []int32
	cnt   []int32
}

// NewCholState initialises L = sqrt(lambda)*I (so V = lambda*I), b = 0.
func NewCholState(dim int, lambda float64) *CholState {
	if dim <= 0 {
		panic(fmt.Sprintf("linalg: ridge dimension must be positive, got %d", dim))
	}
	if lambda <= 0 {
		panic(fmt.Sprintf("linalg: ridge lambda must be positive, got %g", lambda))
	}
	cs := &CholState{
		Dim:     dim,
		L:       Identity(dim, math.Sqrt(lambda)),
		B:       NewVector(dim),
		Lambda:  lambda,
		work:    NewVector(dim),
		rotc:    NewVector(dim),
		rots:    NewVector(dim),
		rotk:    make([]int, 0, dim),
		scratch: cholScratch{z: NewVector(dim), xbuf: NewVector(dim)},
		profile: make([]int, dim),
	}
	cs.resetProfile()
	return cs
}

// resetProfile sets the skyline to the diagonal (L = sqrt(lambda)*I).
func (cs *CholState) resetProfile() {
	for i := range cs.profile {
		cs.profile[i] = i
	}
}

// rescanProfile recomputes the skyline from the stored factor (used
// after restoring L wholesale from a snapshot). Scanning yields the
// exact first non-zero, which is always a sound profile: the solves
// only require that everything left of the bound be an exact +0.
func (cs *CholState) rescanProfile() {
	n := cs.Dim
	for i := 0; i < n; i++ {
		f := i
		row := cs.L.Data[i*n : i*n+i]
		for k, v := range row {
			if v != 0 {
				f = k
				break
			}
		}
		cs.profile[i] = f
	}
}

// Dimension implements RidgeCore.
func (cs *CholState) Dimension() int { return cs.Dim }

// Updates reports how many observations have been folded in.
func (cs *CholState) Updates() int { return cs.updates }

// Theta returns the current coefficient estimate V^{-1} b by a forward
// solve L y = b and a back solve L' theta = y, memoised between
// observations. The returned vector is owned by the state and valid
// until the next Observe/ObserveSparse/Forget; callers must not mutate
// it.
func (cs *CholState) Theta() Vector {
	if !cs.thetaValid {
		y := cs.L.ForwardSolve(cs.B)
		cs.theta = cs.L.BackSolveTransposed(y)
		cs.thetaValid = true
	}
	return cs.theta
}

// ThetaCached implements RidgeCore; it is Theta (already memoised).
func (cs *CholState) ThetaCached() Vector { return cs.Theta() }

// Observe folds one (context, reward) observation into the state:
// b += r x and L <- cholupdate(L, x), so V = L L' absorbs + x x'.
func (cs *CholState) Observe(x Vector, reward float64) {
	if len(x) != cs.Dim {
		panic(fmt.Sprintf("linalg: ridge observe dimension %d, want %d", len(x), cs.Dim))
	}
	cs.B.AddScaled(reward, x)
	copy(cs.work, x)
	cs.cholUpdate()
	cs.updates++
	cs.thetaValid = false
}

// ObserveSparse is Observe for a sparse context, bit-identical to
// Observe on the same logical vector (the rotation loop skips columns
// whose working entry is zero, which covers the sparsity before any
// fill-in occurs).
func (cs *CholState) ObserveSparse(x SparseVector, reward float64) {
	if x.Dim != cs.Dim {
		panic(fmt.Sprintf("linalg: ridge observe dimension %d, want %d", x.Dim, cs.Dim))
	}
	cs.B.AddScaledSparse(reward, x)
	for i := range cs.work {
		cs.work[i] = 0
	}
	for k, i := range x.Idx {
		cs.work[i] = x.Val[k]
	}
	cs.cholUpdate()
	cs.updates++
	cs.thetaValid = false
}

// cholUpdate applies the rank-1 update V <- V + w w' directly to the
// factor, reading w from cs.work. It leaves cs.work untouched: the
// fused sweep carries each row's evolving w entry in a register and the
// rotation coefficients in cs.rotc/cs.rots, so the input vector is
// never written back (the property CholState.Forget's diagonal sweep
// exploits to avoid rezeroing scratch).
func (cs *CholState) cholUpdate() {
	n := cs.Dim
	w := cs.work
	k0 := 0
	for k0 < n && w[k0] == 0 {
		k0++
	}
	// The update writes row r only at rotation columns, all >= k0, and
	// the write can be non-zero only where w[r] != 0 — extend exactly
	// those rows' skylines.
	for r := k0 + 1; r < n; r++ {
		if w[r] != 0 && cs.profile[r] > k0 {
			cs.profile[r] = k0
		}
	}
	cs.cholUpdateFrom(k0)
}

// cholUpdateFrom is the fused row-major form of the rank-1 cholupdate,
// for an input w (in cs.work) whose entries before k0 are all zero. The
// classic column-sweep form visits L column by column — a stride-n
// access pattern on the row-major backing array, with a division on
// every element. This form makes one pass over the rows instead: row i
// applies the rotations of columns k0..i-1 to L[i][k] and to a register
// copy of w[i] (the rotation coefficients were recorded by earlier
// rows in cs.rotc/cs.rots), then forms its own pivot rotation against
// the diagonal.
//
// The rotations are proper Givens rotations, c_k = L[k][k]/r and
// s_k = w_k/r with r = sqrt(L[k][k]² + w_k²): the element update is
// two fused multiply-adds with no division, and the serial dependency
// the row register carries (wi <- c*wi - s*lik) is a single
// multiply-add chain. The algebraically equivalent hyperbolic form
// ((lik + s*wi)/c with c = r/L[k][k]) puts a divide on that chain and
// runs several times slower latency-bound, which — not the memory
// stride — is what dominated the pre-fused kernel.
//
// Columns whose working entry is exactly zero at their pivot rotate by
// the identity; they are never entered in cs.rotk, the ordered list of
// genuine rotation columns each row sweeps, so a sparse w before
// fill-in costs only its genuine rotations — the row-major counterpart
// of the column sweep's O(1) column skip, without a per-element
// sentinel check in the dense case.
// The sweep is blocked two rows at a time: the chain through row i and
// the chain through row i+1 are independent, so pairing them keeps two
// fused multiply-adds in flight and roughly halves the latency bound a
// single chain pins the kernel to.
func (cs *CholState) cholUpdateFrom(k0 int) {
	n := cs.Dim
	w := cs.work
	data := cs.L.Data
	c, s := cs.rotc, cs.rots
	act := cs.rotk[:0]
	i := k0
	for ; i+1 < n; i += 2 {
		wi, wj := w[i], w[i+1]
		rowi := data[i*n : i*n+i]
		rowj := data[(i+1)*n : (i+1)*n+i+1]
		for _, k := range act {
			ck, sk := c[k], s[k]
			lik := rowi[k]
			rowi[k] = ck*lik + sk*wi
			wi = ck*wi - sk*lik
			ljk := rowj[k]
			rowj[k] = ck*ljk + sk*wj
			wj = ck*wj - sk*ljk
		}
		if wi != 0 {
			lii := data[i*n+i]
			r := math.Sqrt(lii*lii + wi*wi)
			ci, si := lii/r, wi/r
			c[i], s[i] = ci, si
			data[i*n+i] = r
			act = append(act, i)
			lji := rowj[i]
			rowj[i] = ci*lji + si*wj
			wj = ci*wj - si*lji
		}
		if wj != 0 {
			ljj := data[(i+1)*n+i+1]
			r := math.Sqrt(ljj*ljj + wj*wj)
			c[i+1], s[i+1] = ljj/r, wj/r
			data[(i+1)*n+i+1] = r
			act = append(act, i+1)
		}
	}
	if i < n {
		wi := w[i]
		row := data[i*n : i*n+i]
		for _, k := range act {
			ck, sk := c[k], s[k]
			lik := row[k]
			row[k] = ck*lik + sk*wi
			wi = ck*wi - sk*lik
		}
		if wi != 0 {
			lii := data[i*n+i]
			r := math.Sqrt(lii*lii + wi*wi)
			c[i], s[i] = lii/r, wi/r
			data[i*n+i] = r
		}
	}
}

// ConfidenceWidth returns sqrt(x' V^{-1} x) = ||L^{-1} x|| by one
// forward solve. quadSolve only reads its right-hand side, so x is
// passed directly (the scratch's xbuf must stay all-zero for the sparse
// paths).
func (cs *CholState) ConfidenceWidth(x Vector) float64 {
	if len(x) != cs.Dim {
		panic(fmt.Sprintf("linalg: width dimension %d, want %d", len(x), cs.Dim))
	}
	return widthFromQuad(cs.quadSolve(x, 0, cs.scratch.z))
}

// ConfidenceWidthSparse is ConfidenceWidth for a sparse context; the
// solve starts at the context's first non-zero index (all earlier
// intermediate entries are exactly zero).
func (cs *CholState) ConfidenceWidthSparse(x SparseVector) float64 {
	return widthFromQuad(cs.quadSparse(x))
}

// cholPanelWidth is the number of right-hand-side columns the batched
// triangular solve forward-substitutes per pass over L. Each row of L
// is loaded once per panel instead of once per arm, so the factor —
// far larger than any cache at TPC-DS dimensionality — streams from
// memory 1/cholPanelWidth as often as the one-column solve. 16 columns
// keep the panel's active rows inside L1 (16×8 B = 2 cache lines per
// row) while amortising essentially all of the factor traffic.
const cholPanelWidth = 16

// QuadraticFormBatch computes x' V^{-1} x for every context into out in
// one pass, without per-arm allocation.
//
// The batch is solved cholPanelWidth arms at a time through one blocked
// forward substitution (quadPanel) rather than one triangular solve per
// arm. Arms are grouped into panels by their first non-zero row
// (counting sort over the row index — deterministic, stable and
// allocation-free), because a panel's substitution must run from the
// block-minimum start row: grouping similar starts keeps the panels as
// narrow as the one-column solves they replace. Each arm's result is
// bit-identical to quadSparse on the same context regardless of how the
// batch is grouped or blocked.
func (cs *CholState) QuadraticFormBatch(xs []SparseVector, out []float64) {
	if len(xs) != len(out) {
		panic(fmt.Sprintf("linalg: batch length mismatch %d contexts, %d outputs", len(xs), len(out)))
	}
	s := &cs.scratch
	n := cs.Dim
	if len(s.panel) < n*cholPanelWidth {
		s.panel = NewVector(n * cholPanelWidth)
	}
	if cap(s.order) < len(xs) {
		s.order = make([]int32, len(xs))
	}
	ord := s.order[:len(xs)]
	if cap(s.cnt) < n+1 {
		s.cnt = make([]int32, n+1)
	}
	cnt := s.cnt[:n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, x := range xs {
		if x.Dim != n {
			panic(fmt.Sprintf("linalg: width dimension %d, want %d", x.Dim, n))
		}
		cnt[xStart(x, n)]++
	}
	var off int32
	for i := range cnt {
		c := cnt[i]
		cnt[i] = off
		off += c
	}
	for i, x := range xs {
		b := xStart(x, n)
		ord[cnt[b]] = int32(i)
		cnt[b]++
	}
	for lo := 0; lo < len(ord); lo += cholPanelWidth {
		hi := lo + cholPanelWidth
		if hi > len(ord) {
			hi = len(ord)
		}
		cs.quadPanel(xs, ord[lo:hi], out)
	}
}

// xStart is the first non-zero row of the context (n when empty).
func xStart(x SparseVector, n int) int {
	if len(x.Idx) == 0 {
		return n
	}
	return x.Idx[0]
}

// quadPanel computes ||L^{-1} x||² for up to cholPanelWidth contexts
// (xs[idx[0]], xs[idx[1]], ...) in one blocked forward substitution: the
// panel Z starts as the scattered right-hand sides and is transformed in
// place row by row, every row of L visited once for the whole panel.
// Underfull panels run at full width against zero-padded columns — a
// padded column's every entry stays an exact +0, so the fixed-width
// inner loops (bounds-check-free via the array-pointer views) cost only
// the dead lanes of at most one panel per batch.
//
// Bit-identity with the one-column quadSparse holds per arm: column j's
// value at row i is b_i minus the k-ascending sequence of l_ik*z_kj
// products, divided by l_ii — the identical operations in the identical
// order. Rows above an arm's first non-zero produce exact +0 entries
// (0 - l*0 = 0, 0/l_ii = +0), subtracting or accumulating which is an
// exact no-op, so starting the panel at the block-wide minimum start
// row changes nothing about any column's bits — which is also why the
// result is independent of panel grouping and block boundaries.
func (cs *CholState) quadPanel(xs []SparseVector, idx []int32, out []float64) {
	const w = cholPanelWidth
	s := &cs.scratch
	n := cs.Dim
	start := n
	for _, j := range idx {
		if b := xStart(xs[j], n); b < start {
			start = b
		}
	}
	if start == n {
		for _, j := range idx {
			out[j] = 0
		}
		return
	}
	p := s.panel
	for i := start * w; i < n*w; i++ {
		p[i] = 0
	}
	for c, j := range idx {
		x := xs[j]
		for k, i := range x.Idx {
			p[i*w+c] = x.Val[k]
		}
	}
	q := &s.q
	for j := range q {
		q[j] = 0
	}
	data := cs.L.Data
	for i := start; i < n; i++ {
		acc := (*[w]float64)(p[i*w:])
		f := cs.profile[i]
		if f < start {
			f = start
		}
		row := data[i*n+f : i*n+i]
		for k, lik := range row {
			zrow := (*[w]float64)(p[(f+k)*w:])
			for j := 0; j < w; j++ {
				acc[j] -= lik * zrow[j]
			}
		}
		lii := data[i*n+i]
		for j := 0; j < w; j++ {
			zj := acc[j] / lii
			acc[j] = zj
			q[j] += zj * zj
		}
	}
	for c, j := range idx {
		out[j] = q[c]
	}
}

// ConfidenceWidthBatch computes sqrt(x' V^{-1} x) for every context into
// out; each entry is bit-identical to ConfidenceWidthSparse.
func (cs *CholState) ConfidenceWidthBatch(xs []SparseVector, out []float64) {
	cs.QuadraticFormBatch(xs, out)
	for i, q := range out {
		out[i] = widthFromQuad(q)
	}
}

// quadSparse scatters x into the scratch's dense buffer and solves from
// its first non-zero row, restoring the buffer to zero afterwards.
func (cs *CholState) quadSparse(x SparseVector) float64 {
	s := &cs.scratch
	if x.Dim != cs.Dim {
		panic(fmt.Sprintf("linalg: width dimension %d, want %d", x.Dim, cs.Dim))
	}
	if len(x.Idx) == 0 {
		return 0
	}
	for k, i := range x.Idx {
		s.xbuf[i] = x.Val[k]
	}
	q := cs.quadSolve(s.xbuf, x.Idx[0], s.z)
	for _, i := range x.Idx {
		s.xbuf[i] = 0
	}
	return q
}

// quadSolve computes ||L^{-1} b||² for the right-hand side b, which must
// be zero before row start. The intermediate z = L^{-1} b lands in the
// supplied z scratch; b is read-only here.
//
// Each row's subtraction loop runs from max(profile[i], start) — every
// skipped term is either l*z with l an exact stored +0 (left of the
// skyline) or l*z with z an exact +0 (above the start row), a product
// of magnitude zero whose subtraction cannot change the sum's bits: no
// partial sum here is ever -0 (sums start at a non-negative right-hand
// side entry, and under round-to-nearest x-y is -0 only when x already
// is), and x - (±0) leaves any non-(-0) x bit-unchanged. Skipping the
// no-op terms is therefore bit-identical to the dense sweep.
func (cs *CholState) quadSolve(b Vector, start int, z Vector) float64 {
	n := cs.Dim
	data := cs.L.Data
	var q float64
	for i := start; i < n; i++ {
		sum := b[i]
		f := cs.profile[i]
		if f < start {
			f = start
		}
		row := data[i*n+f : i*n+i]
		for k, v := range row {
			sum -= v * z[f+k]
		}
		zi := sum / data[i*n+i]
		z[i] = zi
		q += zi * zi
	}
	return q
}

// Forget discounts accumulated knowledge toward the prior by factor
// gamma in [0, 1], matching the Sherman–Morrison backend's semantics:
// V <- (1-gamma)*V + gamma*lambda*I, b <- (1-gamma)*b. On the factor
// this is a scale by sqrt(1-gamma) followed by one fused diagonal
// sweep: pass i applies the rank-1 update sqrt(gamma*lambda)*e_i
// starting directly at its pivot column i (every earlier column rotates
// by the identity), so no pass scans or rezeroes scratch it never
// touches — the pre-fused form rezeroed the full work vector and
// re-scanned all leading columns d times over. The flops are one
// refactorisation's worth, bit-identical to d sequential cholupdates,
// and Forget only runs on detected workload shifts.
func (cs *CholState) Forget(gamma float64) {
	if gamma <= 0 {
		return
	}
	if gamma >= 1 {
		cs.L = Identity(cs.Dim, math.Sqrt(cs.Lambda))
		cs.B = NewVector(cs.Dim)
		cs.resetProfile()
		cs.thetaValid = false
		return
	}
	keep := 1 - gamma
	cs.L.ScaleInPlace(math.Sqrt(keep))
	cs.B.Scale(keep)
	add := math.Sqrt(gamma * cs.Lambda)
	w := cs.work
	for j := range w {
		w[j] = 0
	}
	// cholUpdateFrom never writes its input vector, so between passes
	// only the single previously-set entry needs clearing.
	for i := 0; i < cs.Dim; i++ {
		w[i] = add
		cs.cholUpdateFrom(i)
		w[i] = 0
	}
	cs.thetaValid = false
}

// Scatter reconstructs the scatter matrix V = L L' (tests and
// diagnostics; the hot paths never form it).
func (cs *CholState) Scatter() *Matrix {
	n := cs.Dim
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			m := j
			if i < j {
				m = i
			}
			for k := 0; k <= m; k++ {
				s += cs.L.Data[i*n+k] * cs.L.Data[j*n+k]
			}
			v.Data[i*n+j] = s
		}
	}
	return v
}

// Factor exposes the maintained Cholesky factor (tests/diagnostics).
func (cs *CholState) Factor() *Matrix { return cs.L }
