package linalg

import "fmt"

// SparseVector is a sparse column vector of logical dimension Dim:
// parallel slices of ascending, unique indices and their values. The
// C2UCB context vectors are the motivating case — at most a handful of
// non-zeros (one per index key column plus three derived statistics) out
// of one dimension per schema column — so the sparse kernels below turn
// the bandit's per-arm O(d²) quadratic forms into O(nnz²).
//
// Every sparse kernel iterates the stored entries in ascending index
// order, exactly the order in which dense arithmetic over the same
// logical vector meets the non-zero terms; the skipped terms are exact
// floating-point zero products, so the results are bit-identical to the
// dense arithmetic (TestSparseKernelsBitIdentical writes it out, and
// the env goldens pin the historical numbers).
type SparseVector struct {
	Dim int
	Idx []int
	Val []float64
}

// SparseFromDense collects the non-zero entries of v.
func SparseFromDense(v Vector) SparseVector {
	s := SparseVector{Dim: len(v)}
	for i, x := range v {
		if x != 0 {
			s.Idx = append(s.Idx, i)
			s.Val = append(s.Val, x)
		}
	}
	return s
}

// Dense materialises the full vector.
func (s SparseVector) Dense() Vector {
	v := NewVector(s.Dim)
	for k, i := range s.Idx {
		v[i] = s.Val[k]
	}
	return v
}

// Sort reorders the stored entries into ascending index order in place.
// Builders that append entries out of order (e.g. index key columns in
// key order) must call it before handing the vector to any kernel.
// Insertion sort: context vectors carry a handful of entries.
func (s SparseVector) Sort() {
	for k := 1; k < len(s.Idx); k++ {
		i, v := s.Idx[k], s.Val[k]
		l := k - 1
		for l >= 0 && s.Idx[l] > i {
			s.Idx[l+1], s.Val[l+1] = s.Idx[l], s.Val[l]
			l--
		}
		s.Idx[l+1], s.Val[l+1] = i, v
	}
}

// DotSparse returns v·s, touching only s's stored entries.
func (v Vector) DotSparse(s SparseVector) float64 {
	if len(v) != s.Dim {
		panic(fmt.Sprintf("linalg: sparse dot dimension mismatch %d vs %d", len(v), s.Dim))
	}
	var out float64
	for k, i := range s.Idx {
		out += v[i] * s.Val[k]
	}
	return out
}

// AddScaledSparse adds alpha*s to v in place and returns v.
func (v Vector) AddScaledSparse(alpha float64, s SparseVector) Vector {
	if len(v) != s.Dim {
		panic(fmt.Sprintf("linalg: sparse axpy dimension mismatch %d vs %d", len(v), s.Dim))
	}
	for k, i := range s.Idx {
		v[i] += alpha * s.Val[k]
	}
	return v
}

// QuadraticFormSparse computes x' * m * x touching only the nnz² matrix
// entries addressed by x's stored indices — O(nnz²) instead of O(d²).
func (m *Matrix) QuadraticFormSparse(x SparseVector) float64 {
	n := x.Dim
	if m.Rows != n || m.Cols != n {
		panic(fmt.Sprintf("linalg: sparse quadratic form shape mismatch %dx%d with %d", m.Rows, m.Cols, n))
	}
	var total float64
	for k, i := range x.Idx {
		xi := x.Val[k]
		if xi == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n]
		var s float64
		for l, j := range x.Idx {
			s += row[j] * x.Val[l]
		}
		total += xi * s
	}
	return total
}

// MulVecSparse computes m * x into a new dense vector in O(rows*nnz).
func (m *Matrix) MulVecSparse(x SparseVector) Vector {
	if m.Cols != x.Dim {
		panic(fmt.Sprintf("linalg: sparse mulvec shape mismatch %dx%d * %d", m.Rows, m.Cols, x.Dim))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for k, j := range x.Idx {
			s += row[j] * x.Val[k]
		}
		out[i] = s
	}
	return out
}

// AddOuterScaledSparse adds alpha * x*x' to m in place, touching only the
// nnz² addressed entries. Like AddOuterScaled it is only valid for
// symmetric accumulation (the bandit scatter matrix V += x x').
func (m *Matrix) AddOuterScaledSparse(alpha float64, x SparseVector) {
	n := x.Dim
	if m.Rows != n || m.Cols != n {
		panic(fmt.Sprintf("linalg: sparse outer shape mismatch %dx%d += %d outer", m.Rows, m.Cols, n))
	}
	for k, i := range x.Idx {
		xi := alpha * x.Val[k]
		if xi == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n]
		for l, j := range x.Idx {
			row[j] += xi * x.Val[l]
		}
	}
}
