package tensor

import (
	"fmt"
	"math"
)

// SampleV2 is selection stream v2: the first k ids of a uniformly random
// permutation of [0,n), drawn lazily by a sparse Fisher–Yates shuffle.
// Step i swaps slot i with slot j = i + Intn(n−i) and yields the id now
// at slot i, so the generator makes exactly one Intn per id it yields and
// a K-of-N cohort costs K draws, not N. Slots the shuffle has displaced
// live in a small open-addressed table sized from k, never from n; every
// other slot still holds its own index. k > n clamps to n; a negative k,
// or an n outside [0, 2^31 − 1] (the table's int32 range), panics.
//
// With keep non-nil the shuffle runs on until k yielded ids passed keep
// or all n are drawn: the result is the first k kept ids in shuffle
// order, padded with −1 to length min(k,n) when fewer exist, after at
// most n draws. keep == nil keeps every id.
//
// The stream is part of every pinned history and of every checkpoint's
// selection-stream position, so it does not change under this name; a
// different draw is a new version (and a new checkpoint version).
func (g *RNG) SampleV2(n, k int, keep func(id int) bool) []int {
	if k < 0 || n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: SampleV2(%d, %d) out of range", n, k))
	}
	k = min(k, n)
	out := make([]int, 0, k)
	t := newSwapTable(k)
	for i := 0; i < n && len(out) < k; i++ {
		j := i + g.r.Intn(n-i)
		id := t.get(j)
		if j != i {
			t.set(j, t.get(i))
		}
		if keep == nil || keep(int(id)) {
			out = append(out, int(id))
		}
	}
	for len(out) < k {
		out = append(out, -1)
	}
	return out
}

// swapTable maps a displaced slot to the id it holds: linear probing over
// a power-of-two slice of int32 pairs, kept at most half full, where a
// key of 0 marks an empty pair and slot s is stored as s+1.
type swapTable struct {
	pairs []swapPair
	used  int
	shift uint
}

type swapPair struct{ key, id int32 }

// newSwapTable sizes a table for k entries: the power of two ≥ 2k (at
// least 8). A uniform draw stores at most one entry per step, so it never
// grows; a keep-filtered draw grows it by doubling past k entries.
func newSwapTable(k int) swapTable {
	size, shift := 8, uint(29)
	for size < 2*k {
		size, shift = size*2, shift-1
	}
	return swapTable{pairs: make([]swapPair, size), shift: shift}
}

// slot returns the index of s's pair, or of the empty pair where s goes.
func (t *swapTable) slot(s int) int {
	mask := len(t.pairs) - 1
	h := int(uint32(s)*0x9E3779B9>>t.shift) & mask
	for t.pairs[h].key != 0 && t.pairs[h].key != int32(s+1) {
		h = (h + 1) & mask
	}
	return h
}

// get returns the id at slot s.
func (t *swapTable) get(s int) int32 {
	if p := t.pairs[t.slot(s)]; p.key != 0 {
		return p.id
	}
	return int32(s)
}

// set stores id at slot s.
func (t *swapTable) set(s int, id int32) {
	h := t.slot(s)
	if t.pairs[h].key == 0 {
		if 2*(t.used+1) > len(t.pairs) {
			t.grow()
			h = t.slot(s)
		}
		t.used++
	}
	t.pairs[h] = swapPair{int32(s + 1), id}
}

// grow doubles the table and reinserts every entry.
func (t *swapTable) grow() {
	old := t.pairs
	t.pairs, t.shift = make([]swapPair, 2*len(old)), t.shift-1
	for _, p := range old {
		if p.key != 0 {
			t.pairs[t.slot(int(p.key-1))] = p
		}
	}
}
