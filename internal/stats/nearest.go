package stats

// DistIdx is a (distance, index) pair. Pairs order lexicographically, by
// distance and then by index, so a nearest-neighbour selection over them
// breaks ties the same way on every run.
type DistIdx struct {
	D   float64
	Idx int
}

// Less reports whether a orders strictly before b.
func (a DistIdx) Less(b DistIdx) bool {
	return a.D < b.D || (a.D == b.D && a.Idx < b.Idx)
}

// Nearest keeps the k smallest pairs offered to it in a bounded max-heap:
// the top is the largest pair kept, the one a smaller candidate evicts.
// Reset sets k; a Nearest reused across queries allocates only when k grows
// past every earlier k.
type Nearest struct {
	k int
	h []DistIdx
}

// Reset empties the heap and bounds it to k ≥ 1 pairs.
func (q *Nearest) Reset(k int) {
	if cap(q.h) < k {
		q.h = make([]DistIdx, 0, k)
	}
	q.h = q.h[:0]
	q.k = k
}

// Full reports whether k pairs are kept, so that a candidate enters only by
// evicting Worst.
func (q *Nearest) Full() bool { return len(q.h) >= q.k }

// Worst returns the largest pair kept. The heap must not be empty.
func (q *Nearest) Worst() DistIdx { return q.h[0] }

// Offer keeps c when fewer than k pairs are kept or c orders before Worst.
// It inlines into the caller's loop, so most rejected candidates cost no
// call.
func (q *Nearest) Offer(c DistIdx) {
	if len(q.h) < q.k || c.D <= q.h[0].D {
		q.keep(c)
	}
}

func (q *Nearest) keep(c DistIdx) {
	h := q.h
	if len(h) == q.k {
		if c.Less(h[0]) {
			h[0] = c
			siftDown(h)
		}
		return
	}
	h = append(h, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[p].Less(h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	q.h = h
}

// Sorted heap-sorts the kept pairs into ascending order in place and
// returns them. The next Offer must follow a Reset.
func (q *Nearest) Sorted() []DistIdx {
	h := q.h
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end])
	}
	return h
}

// siftDown restores the max-heap order of h after its top was replaced.
func siftDown(h []DistIdx) {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && h[l].Less(h[r]) {
			big = r
		}
		if !h[i].Less(h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
