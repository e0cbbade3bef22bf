// Package linalg provides the small dense linear-algebra kernel used by
// the C2UCB bandit: vectors, square matrices, Cholesky factorisation and
// incremental (Sherman–Morrison) inverse maintenance for the ridge
// regression scatter matrix.
//
// The package is deliberately minimal and allocation-conscious: the bandit
// performs one rank-1 update per played arm per round and one quadratic
// form per candidate arm per round, so those two operations dominate.
package linalg

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Scale multiplies every element of v by alpha in place and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}
