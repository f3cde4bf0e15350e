package dataset

import (
	"math"
	"math/bits"
)

// Grouper is the reusable, allocation-free form of Table.GroupBy for hot
// paths that only need the equivalence-class *structure* — per-row class ids
// and per-class sizes — not group index lists in lexicographic key order.
// The discernibility metric recomputes the partition of every release at
// every sweep level; with GroupBy that is one rendered string key per row
// per level (the dominant allocation of a whole sweep), while a Grouper
// reuses its buffers across calls and allocates nothing once warm.
//
// Classes finds the classes in one pass over the rows. Each row is keyed by
// a 64-bit hash of its compared cells, the key is looked up in an
// open-addressing table of class representatives (each class's first row),
// and the row joins a class only after a cell-by-cell comparison with its
// representative, so a hash collision costs a comparison, never a wrong
// class. Two rows land in the same class exactly when all their compared
// cells are equal under GroupBy's rendered-string equality: numeric cells
// compare by their float bits (NaNs canonicalized, so all NaNs are one cell
// value, matching their common "NaN" rendering), intervals by (lo, hi) bits
// plus the interval-ness flag, text cells by dictionary id, and nulls form
// their own cell value, which a literal "*" text cell shares. The one
// divergence from string keys is text cells containing the \x1f key
// separator, which could alias across columns in GroupBy; the Grouper
// always keeps columns independent. DESIGN.md gives the argument.
//
// Class ids run 0..len(sizes)-1 in order of first appearance. A Grouper is
// not safe for concurrent use; the returned slices are valid until the next
// Classes call.
type Grouper struct {
	ids   []int32
	sizes []int32
	keys  []uint64 // per-row key
	ckeys []uint64 // each class's key
	reps  []int32  // each class's first row
	slots []int32  // open addressing on the key: class id + 1, 0 empty
	cols  []groupCol
	// collide zeroes every key, so that only the cell comparison tells
	// classes apart (tests).
	collide bool
}

// groupCol is one compared column: its storage and, for text, the
// dictionary id of a literal "*" (−1 when absent).
type groupCol struct {
	c    *colData
	star int32
}

// canonBits returns the comparison bits of f: Float64bits with every NaN
// collapsed to one canonical pattern, mirroring the fact that every NaN
// renders as the same "NaN" string key.
func canonBits(f float64) uint64 {
	if f != f {
		return 0x7FF8000000000001
	}
	return math.Float64bits(f)
}

// The words a null cell and an interval's upper bound are keyed by.
const (
	nullWord = 0x9E3779B97F4A7C15
	spanWord = 0xD6E8FEB86659FD93
)

// mixKey folds one cell word into a row key: an xxHash64 accumulator round.
func mixKey(h, w uint64) uint64 {
	return bits.RotateLeft64(h+w*0xC2B2AE3D27D4EB4F, 31) * 0x9E3779B185EBCA87
}

// Classes partitions the table's rows by the given columns and returns the
// per-row class ids plus the per-class sizes. Both slices are owned by the
// Grouper and reused by the next call.
func (g *Grouper) Classes(t *Table, cols []int) (ids []int32, sizes []int32) {
	n := t.nrows
	g.ids = resize(g.ids, n)
	g.keys = resize(g.keys, n)
	clear(g.keys)
	g.cols = g.cols[:0]
	for _, ci := range cols {
		gc := groupCol{c: t.cols[ci], star: -1}
		if gc.c.kind == Text && gc.c.dict != nil {
			if id, ok := gc.c.dict.idx["*"]; ok {
				gc.star = id
			}
		}
		g.cols = append(g.cols, gc)
		keyColumn(g.keys, gc)
	}
	if g.collide {
		clear(g.keys)
	}
	g.ckeys, g.reps, g.sizes = g.ckeys[:0], g.reps[:0], g.sizes[:0]
	if len(g.slots) < 16 {
		g.slots = make([]int32, 16)
	}
	clear(g.slots)
	shift := 64 - bits.Len(uint(len(g.slots)-1))
	for i, key := range g.keys {
		s := int(key * 0x9E3779B97F4A7C15 >> shift)
		for {
			c := g.slots[s] - 1
			if c < 0 {
				c = int32(len(g.reps))
				g.slots[s] = c + 1
				g.ckeys, g.reps, g.sizes = append(g.ckeys, key), append(g.reps, int32(i)), append(g.sizes, 0)
				if 2*len(g.reps) > len(g.slots) {
					shift = g.grow()
				}
			} else if g.ckeys[c] != key || !g.sameRow(int(g.reps[c]), i) {
				s = (s + 1) & (len(g.slots) - 1)
				continue
			}
			g.ids[i] = c
			g.sizes[c]++
			break
		}
	}
	return g.ids, g.sizes
}

// grow doubles the slot table, reinserts every class and returns the new
// shift.
func (g *Grouper) grow() int {
	m := 2 * len(g.slots)
	if cap(g.slots) >= m {
		g.slots = g.slots[:m]
		clear(g.slots)
	} else {
		g.slots = make([]int32, m)
	}
	shift := 64 - bits.Len(uint(m-1))
	for c, key := range g.ckeys {
		s := int(key * 0x9E3779B97F4A7C15 >> shift)
		for g.slots[s] != 0 {
			s = (s + 1) & (m - 1)
		}
		g.slots[s] = int32(c) + 1
	}
	return shift
}

// resize returns s with length n, reallocated only when too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keyColumn folds every row's cell in column c into its key. Equal cells
// give equal words: the canonical bits of a number; those of an interval's
// lower bound, then its upper bound marked by spanWord; a text cell's
// dictionary id; nullWord for a null or a literal "*" (dictionary id star).
// Null rows are checked first, so the stale buffer words under a null cell
// are never read.
func keyColumn(keys []uint64, gc groupCol) {
	switch c := gc.c; {
	case c.kind == Text:
		for i := range keys {
			w := uint64(nullWord)
			if !c.nulls.get(i) && c.ids[i] != gc.star {
				w = uint64(uint32(c.ids[i]))
			}
			keys[i] = mixKey(keys[i], w)
		}
	case c.nulls == nil && c.spans == nil:
		for i, v := range c.num[:len(keys)] {
			keys[i] = mixKey(keys[i], canonBits(v))
		}
	default:
		for i := range keys {
			switch {
			case c.nulls.get(i):
				keys[i] = mixKey(keys[i], nullWord)
			case c.spans.get(i):
				keys[i] = mixKey(mixKey(keys[i], canonBits(c.num[i])), canonBits(c.hi[i])^spanWord)
			default:
				keys[i] = mixKey(keys[i], canonBits(c.num[i]))
			}
		}
	}
}

// sameRow reports whether rows a and b hold equal cells in every compared
// column, by the cell equality keyColumn hashes.
func (g *Grouper) sameRow(a, b int) bool {
	for _, gc := range g.cols {
		c := gc.c
		na, nb := c.nulls.get(a), c.nulls.get(b)
		if c.kind == Text {
			na = na || c.ids[a] == gc.star
			nb = nb || c.ids[b] == gc.star
			if na || nb {
				if na != nb {
					return false
				}
			} else if c.ids[a] != c.ids[b] {
				return false
			}
			continue
		}
		if na || nb {
			if na != nb {
				return false
			}
			continue
		}
		sa := c.spans.get(a)
		if sa != c.spans.get(b) || canonBits(c.num[a]) != canonBits(c.num[b]) ||
			sa && canonBits(c.hi[a]) != canonBits(c.hi[b]) {
			return false
		}
	}
	return true
}
