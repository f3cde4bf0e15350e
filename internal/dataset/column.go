package dataset

import (
	"sync/atomic"
)

// This file implements the columnar storage behind Table: one typed buffer
// per column, shared copy-on-write between tables. See DESIGN.md in this
// package for the layout and the sharing rules.

// bitset is a packed bit vector. A nil bitset reads as all-zero; it is grown
// lazily by ensure before the first set. get tolerates indices beyond the
// allocated words so short (or nil) bitmaps stay valid for any row index.
type bitset []uint64

func (b bitset) get(i int) bool {
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// ensure returns a bitset with capacity for bit i (allocating or growing).
func (b bitset) ensure(i int) bitset {
	need := i>>6 + 1
	if len(b) >= need {
		return b
	}
	nb := make(bitset, need)
	copy(nb, b)
	return nb
}

func (b bitset) clone() bitset {
	if b == nil {
		return nil
	}
	return append(bitset(nil), b...)
}

// allOnes returns a bitset with the first n bits set — the suppressed-column
// null map.
func allOnes(n int) bitset {
	b := make(bitset, (n+63)/64)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

// intern is an append-only string dictionary shared copy-on-write between
// column storages. Lookups never mutate; appending a new string to a shared
// dictionary clones it first, so readers holding the old pointer are never
// raced.
type intern struct {
	refs atomic.Int32
	strs []string
	idx  map[string]int32
}

// newIntern returns an empty dictionary with room for size strings.
func newIntern(size int) *intern {
	it := &intern{strs: make([]string, 0, size), idx: make(map[string]int32, size)}
	it.refs.Store(1)
	return it
}

func (it *intern) clone() *intern {
	nd := &intern{
		strs: append([]string(nil), it.strs...),
		idx:  make(map[string]int32, len(it.idx)),
	}
	for s, id := range it.idx {
		nd.idx[s] = id
	}
	nd.refs.Store(1)
	return nd
}

// colData is the storage of one column. Tables share colData pointers;
// Clone, Project and the With* views bump refs, and mutators copy the buffers
// first when refs > 1 (see Table.ensureOwned).
//
// Number columns store the scalar value (or the interval lower bound) in num,
// interval upper bounds in hi (materialized on the first interval cell, with
// hi[i] == num[i] for plain numbers), and mark interval cells in spans. Text
// columns store dictionary ids in ids. Suppressed cells are marked in nulls;
// a column whose cells are all suppressed may have nil buffers (the zero-copy
// SuppressColumn representation) — readers check nulls first.
type colData struct {
	refs  atomic.Int32
	kind  ValueKind // declared column kind: Number or Text
	n     int
	nulls bitset

	num   []float64
	hi    []float64
	spans bitset

	ids  []int32
	dict *intern
}

func newColData(kind ValueKind) *colData {
	c := &colData{kind: kind}
	c.refs.Store(1)
	return c
}

// allNullCol is the suppressed-column storage: n null cells, no buffers.
func allNullCol(kind ValueKind, n int) *colData {
	c := &colData{kind: kind, n: n, nulls: allOnes(n)}
	c.refs.Store(1)
	return c
}

// copyData returns a privately owned copy of the buffers. The dictionary is
// shared (it is copy-on-append itself).
func (c *colData) copyData() *colData {
	d := &colData{
		kind:  c.kind,
		n:     c.n,
		nulls: c.nulls.clone(),
		spans: c.spans.clone(),
	}
	if c.num != nil {
		d.num = append([]float64(nil), c.num...)
	}
	if c.hi != nil {
		d.hi = append([]float64(nil), c.hi...)
	}
	if c.ids != nil {
		d.ids = append([]int32(nil), c.ids...)
	}
	if c.dict != nil {
		c.dict.refs.Add(1)
		d.dict = c.dict
	}
	d.refs.Store(1)
	return d
}

// value reconstructs the cell at row i.
func (c *colData) value(i int) Value {
	if c.nulls.get(i) {
		return Value{}
	}
	if c.kind == Text {
		return Value{kind: Text, str: c.dict.strs[c.ids[i]]}
	}
	if c.spans.get(i) {
		return Value{kind: Interval, lo: c.num[i], hi: c.hi[i]}
	}
	return Value{kind: Number, num: c.num[i]}
}

// float is the numeric reading of cell i (intervals at their midpoint),
// matching Value.Float bit for bit.
func (c *colData) float(i int) (float64, bool) {
	if c.kind == Text || c.nulls.get(i) {
		return 0, false
	}
	if c.spans.get(i) {
		return (c.num[i] + c.hi[i]) / 2, true
	}
	return c.num[i], true
}

// internID interns s in the column dictionary, cloning a shared dictionary
// before the first new append.
func (c *colData) internID(s string) int32 {
	if c.dict == nil {
		c.dict = newIntern(0)
	}
	if id, ok := c.dict.idx[s]; ok {
		return id
	}
	if c.dict.refs.Load() > 1 {
		// Clone before releasing the shared dictionary: decrementing first
		// could let another holder observe refs==1 and append in place while
		// the clone is still reading the map.
		nd := c.dict.clone()
		c.dict.refs.Add(-1)
		c.dict = nd
	}
	id := int32(len(c.dict.strs))
	c.dict.strs = append(c.dict.strs, s)
	c.dict.idx[s] = id
	return id
}

// appendValue appends a kind-validated cell. Callers must own the storage.
func (c *colData) appendValue(v Value) {
	i := c.n
	c.n++
	switch v.kind {
	case Null:
		c.nulls = c.nulls.ensure(i)
		c.nulls.set(i)
		// Keep materialized buffers row-aligned with placeholders.
		if c.ids != nil {
			c.ids = append(c.ids, 0)
		}
		if c.num != nil {
			c.num = append(c.num, 0)
			if c.hi != nil {
				c.hi = append(c.hi, 0)
			}
		}
	case Text:
		if c.ids == nil {
			c.ids = make([]int32, i, i+8)
		}
		c.ids = append(c.ids, c.internID(v.str))
	case Number:
		if c.num == nil {
			c.num = make([]float64, i, i+8)
		}
		c.num = append(c.num, v.num)
		if c.hi != nil {
			c.hi = append(c.hi, v.num)
		}
	case Interval:
		if c.num == nil {
			c.num = make([]float64, i, i+8)
		}
		c.num = append(c.num, v.lo)
		if c.hi == nil {
			c.hi = make([]float64, i, i+8)
			copy(c.hi, c.num[:i])
		}
		c.hi = append(c.hi, v.hi)
		c.spans = c.spans.ensure(i)
		c.spans.set(i)
	}
}

// setValue overwrites cell i with a kind-validated value. Callers must own
// the storage.
func (c *colData) setValue(i int, v Value) {
	if v.kind == Null {
		c.nulls = c.nulls.ensure(i)
		c.nulls.set(i)
		return
	}
	if c.nulls.get(i) {
		c.nulls.clear(i)
	}
	if v.kind == Text {
		if c.ids == nil {
			c.ids = make([]int32, c.n)
		}
		c.ids[i] = c.internID(v.str)
		return
	}
	if c.num == nil {
		c.num = make([]float64, c.n)
		if c.hi != nil {
			c.hi = make([]float64, c.n)
		}
	}
	switch v.kind {
	case Number:
		c.num[i] = v.num
		if c.hi != nil {
			c.hi[i] = v.num
		}
		if c.spans.get(i) {
			c.spans.clear(i)
		}
	case Interval:
		c.num[i] = v.lo
		if c.hi == nil {
			c.hi = append([]float64(nil), c.num...)
		}
		c.hi[i] = v.hi
		c.spans = c.spans.ensure(i)
		c.spans.set(i)
	}
}
