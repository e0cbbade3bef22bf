package linalg

// SparseArena is a round-scoped bump allocator for SparseVector storage:
// one flat grow-only Idx buffer and one flat Val buffer, sliced per
// vector. A caller that builds many short-lived sparse vectors per round
// (the bandit's per-arm contexts) resets the arena at the top of the
// round and appends into it instead of allocating per vector; after the
// first round reaches its high-water mark the steady state allocates
// nothing.
//
// Lifetime discipline: every vector taken from the arena aliases arena
// memory and is valid only until the next Reset. Reset advances the
// arena's epoch; anything that retains a vector past the round that
// built it must either copy the entries out (CopySparse) or hold the
// epoch it was built under and assert it against Epoch before reading.
// The vectors are handed out with capacity clamped to their length, so
// appending to a taken vector reallocates instead of clobbering a
// neighbour.
//
// An arena is owned by one goroutine; it is not safe for concurrent use.
type SparseArena struct {
	epoch int
	idx   []int
	val   []float64
}

// Reset truncates the arena for a new round and advances its epoch.
// Previously taken vectors keep pointing at the old entries until the
// arena grows over them — holding one past Reset is a bug the epoch
// check exists to catch, not a supported mode.
func (a *SparseArena) Reset() {
	a.epoch++
	a.idx = a.idx[:0]
	a.val = a.val[:0]
}

// Epoch returns the current epoch: the number of Resets so far. A
// retained vector is safe to read only while the arena's epoch still
// equals the epoch at which the vector was taken.
func (a *SparseArena) Epoch() int { return a.epoch }

// Grow reserves capacity for at least n more entries, so a builder that
// knows its bound pays at most one growth per Reset cycle.
func (a *SparseArena) Grow(n int) {
	if free := cap(a.idx) - len(a.idx); free < n {
		idx := make([]int, len(a.idx), 2*cap(a.idx)+n)
		copy(idx, a.idx)
		a.idx = idx
	}
	if free := cap(a.val) - len(a.val); free < n {
		val := make([]float64, len(a.val), 2*cap(a.val)+n)
		copy(val, a.val)
		a.val = val
	}
}

// Mark returns the position a subsequent Take slices from. Typical use:
// m := a.Mark(); a.Append(...)...; x := a.Take(dim, m).
func (a *SparseArena) Mark() int { return len(a.idx) }

// Append pushes one (index, value) entry onto the vector being built.
func (a *SparseArena) Append(i int, v float64) {
	a.idx = append(a.idx, i)
	a.val = append(a.val, v)
}

// Take finalises the vector built since mark. The returned slices alias
// the arena with capacity clamped to length (a later Append can never
// clobber them, and an append to the taken vector copies out).
func (a *SparseArena) Take(dim, mark int) SparseVector {
	n := len(a.idx)
	return SparseVector{Dim: dim, Idx: a.idx[mark:n:n], Val: a.val[mark:n:n]}
}

// CopySparse appends a copy of x's entries to dst's backing buffers and
// returns the copy — the "copies out" arm of the arena discipline, used
// for the few vectors that must outlive the round (the tuner's pending
// feedback contexts). dst is typically a second, longer-lived arena.
func (a *SparseArena) CopySparse(x SparseVector) SparseVector {
	m := a.Mark()
	a.Grow(len(x.Idx))
	a.idx = append(a.idx, x.Idx...)
	a.val = append(a.val, x.Val...)
	return a.Take(x.Dim, m)
}
