package model

import "math/bits"

// csr is a compressed-sparse-row adjacency relation: one flat backing array
// of int32 values plus a rows+1 offset table. Every per-reader / per-tag
// relation in the geometry core (tagsOf, readersOf, interOut, interIn,
// covAdj, nbr) is stored this way so the hot loops — compiling a local
// weight kernel, GHC's 2-hop invalidation walk — walk one contiguous
// allocation instead of chasing a slice header per row. Rows are sorted
// ascending, matching the pre-CSR [][]int32 layout element for element (the
// bit-identical-schedules contract).
//
// A csr is immutable after construction and shared by every clone of a
// System.
type csr struct {
	off []int32 // len rows()+1, off[0] == 0, non-decreasing
	dat []int32
}

// row returns row i as a sub-slice of the backing array. Callers must not
// mutate it.
func (c *csr) row(i int) []int32 { return c.dat[c.off[i]:c.off[i+1]] }

// rowLen returns len(row(i)) without materializing the slice header.
func (c *csr) rowLen(i int) int { return int(c.off[i+1] - c.off[i]) }

// rows returns the number of rows.
func (c *csr) rows() int { return len(c.off) - 1 }

// emptyCSR returns an n-row relation with every row empty — the valid zero
// layout for degenerate systems (no tags, no readers).
func emptyCSR(n int) csr { return csr{off: make([]int32, n+1)} }

// transposeCSR returns the reverse relation of c over m target columns:
// out.row(v) lists every u with v ∈ c.row(u), ascending (rows are filled by
// scanning u in ascending order, so sortedness is free). This is how
// readersOf is derived from tagsOf and interIn from interOut — one counting
// pass, one scatter pass, two allocations total.
func transposeCSR(c csr, m int) csr {
	// Counting pass into off[0..m-1], exclusive prefix sum, then scatter
	// using off[v] itself as the write cursor: after the scatter each off[v]
	// has advanced to the start of row v+1, so one overlapping copy shifts
	// the table into its final form. No separate cursor array needed.
	off := make([]int32, m+1)
	for _, v := range c.dat {
		off[v]++
	}
	sum := int32(0)
	for i := 0; i < m; i++ {
		cnt := off[i]
		off[i] = sum
		sum += cnt
	}
	off[m] = sum
	dat := make([]int32, len(c.dat))
	rowsN := len(c.off) - 1
	for u := 0; u < rowsN; u++ {
		for _, v := range c.dat[c.off[u]:c.off[u+1]] {
			dat[off[v]] = int32(u)
			off[v]++
		}
	}
	copy(off[1:], off[:m])
	off[0] = 0
	return csr{off: off, dat: dat}
}

// appendBits appends the indices of the set bits in row to dst, ascending —
// trailing-zeros iteration visits bits in index order, so relations
// accumulated in a bitset come out of this already sorted.
func appendBits(dst []int32, row []uint64) []int32 {
	for k, word := range row {
		base := int32(k) << 6
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
