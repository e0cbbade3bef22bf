// Package linalg provides the small dense linear-algebra kernel used by
// the C2UCB bandit: vectors, square matrices, Cholesky factorisation and
// incremental (Sherman–Morrison) inverse maintenance for the ridge
// regression scatter matrix.
//
// The package is deliberately minimal and allocation-conscious: the bandit
// performs one rank-1 update per played arm per round and one quadratic
// form per candidate arm per round, so those two operations dominate.
package linalg

import "math"

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Scale multiplies every element of v by alpha in place and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element of v (0 for empty vectors).
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether v and w agree element-wise within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}
