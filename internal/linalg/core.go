package linalg

import "fmt"

// RidgeCore is the pluggable backend of the C2UCB ridge regression: the
// sufficient statistics V_t = lambda*I + sum x x' and b_t = sum r*x,
// queried through the coefficient estimate theta_t = V_t^{-1} b_t and
// the per-context confidence width sqrt(x' V_t^{-1} x).
//
// Two implementations ship:
//
//   - BackendSM (*RidgeState, the default): explicit inverse maintained
//     incrementally by Sherman–Morrison, with drift-scored rebasing.
//     Widths cost O(nnz²) per sparse context — the cheapest scoring
//     path, at the price of inverse-drift accounting.
//   - BackendChol (*CholState): the Cholesky factor L of V maintained
//     directly by rank-1 cholupdate. No explicit inverse, no drift, no
//     rebase machinery; theta costs two triangular solves and each
//     width one. Observe is unconditionally stable, widths cost O(d²).
//
// Both backends memoise theta between observations (ThetaCached) and
// score whole arm batches in one pass (QuadraticFormBatch /
// ConfidenceWidthBatch), so callers never re-derive theta per arm.
//
// Vectors returned by Theta/ThetaCached are owned by the core and valid
// until the next Observe/ObserveSparse/Forget; callers must not mutate
// them.
//
// A core is NOT safe for concurrent use: the theta memo is written
// lazily by the scoring reads, and the factored backend's solves reuse
// per-state scratch. Callers that share a core across goroutines must
// serialise every call on it.
type RidgeCore interface {
	// Dimension returns the context dimensionality d.
	Dimension() int
	// Updates reports how many observations have been folded in.
	Updates() int
	// Theta returns the current coefficient estimate V^{-1} b.
	Theta() Vector
	// ThetaCached is Theta through the memo: the estimate is computed at
	// most once between observations, however many scoring passes ask.
	ThetaCached() Vector
	// Observe folds one dense (context, reward) observation into the
	// state: V += x x', b += r x.
	Observe(x Vector, reward float64)
	// ObserveSparse is Observe for a sparse context, bit-identical to
	// Observe on the same logical vector.
	ObserveSparse(x SparseVector, reward float64)
	// ConfidenceWidth returns sqrt(x' V^{-1} x) for a dense context.
	ConfidenceWidth(x Vector) float64
	// ConfidenceWidthSparse is ConfidenceWidth for a sparse context.
	ConfidenceWidthSparse(x SparseVector) float64
	// QuadraticFormBatch computes x' V^{-1} x for every context into
	// out (len(out) must equal len(xs)) in one pass over the state.
	QuadraticFormBatch(xs []SparseVector, out []float64)
	// ConfidenceWidthBatch computes sqrt(x' V^{-1} x) for every context
	// into out (len(out) must equal len(xs)) in one pass; each entry is
	// bit-identical to ConfidenceWidthSparse on the same context.
	ConfidenceWidthBatch(xs []SparseVector, out []float64)
	// Forget discounts accumulated knowledge toward the prior by factor
	// gamma in [0, 1]: 0 keeps everything, 1 resets to lambda*I / 0.
	Forget(gamma float64)
	// Snapshot returns the serialisable state of the core; restoring it
	// with RestoreRidgeCore yields a core whose every subsequent result
	// is bit-identical to this one's. The theta memo is not captured
	// (it is a pure function of the captured state).
	Snapshot() *RidgeSnapshot
}

// Names of the ridge backends selectable through TunerOptions, policy
// params, and the -ridge command-line flags.
const (
	// BackendSM is the Sherman–Morrison explicit-inverse backend — the
	// default; every golden fixture was captured under it.
	BackendSM = "sm"
	// BackendChol is the factored (Cholesky) backend.
	BackendChol = "chol"
)

// RidgeBackends lists the selectable backend names.
func RidgeBackends() []string { return []string{BackendSM, BackendChol} }

// ValidRidgeBackend reports whether name selects a backend ("" selects
// the default).
func ValidRidgeBackend(name string) bool {
	switch name {
	case "", BackendSM, BackendChol:
		return true
	}
	return false
}

// NewRidgeCore constructs the named backend ("" means BackendSM) with
// V = lambda*I, b = 0.
func NewRidgeCore(backend string, dim int, lambda float64) (RidgeCore, error) {
	switch backend {
	case "", BackendSM:
		return NewRidgeState(dim, lambda), nil
	case BackendChol:
		return NewCholState(dim, lambda), nil
	}
	return nil, fmt.Errorf("linalg: unknown ridge backend %q (available: %v)", backend, RidgeBackends())
}

var (
	_ RidgeCore = (*RidgeState)(nil)
	_ RidgeCore = (*CholState)(nil)
)
