package fusion

import "sync"

// Matrix is the adversary's feature matrix in flat row-major form: row r
// occupies Flat[r*Stride : (r+1)*Stride], and Names parallels the columns.
// Without row-slice headers, estimators can stream it, hand it to the fuzzy
// batch evaluator, or chunk it across workers by plain index arithmetic.
type Matrix struct {
	Flat   []float64
	Rows   int
	Stride int
	Names  []string
}

// Row returns the r-th feature row (cap-limited, so appends cannot clobber
// the neighbouring row).
func (m Matrix) Row(r int) []float64 {
	return m.Flat[r*m.Stride : (r+1)*m.Stride : (r+1)*m.Stride]
}

// Arena is a bump allocator for per-level fusion scratch: feature columns,
// the flat matrix, estimate vectors. A sweep resets it at the start of every
// level, so once its blocks have grown to the level's working set, fusion
// steady state allocates nothing. A nil *Arena is valid and falls back to
// plain allocations.
//
// The arena is single-writer: only the goroutine orchestrating a level may
// allocate from it. Parallel workers receive slices carved out beforehand.
type Arena struct {
	floats []float64
	nf     int
	bools  []bool
	nb     int
	ints   []int32
	ni     int
}

// Reset makes the arena's whole capacity available again. Slices handed out
// before the reset must no longer be used.
func (a *Arena) Reset() {
	if a != nil {
		a.nf, a.nb, a.ni = 0, 0, 0
	}
}

// Floats returns a zeroed []float64 of length n.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.nf+n > len(a.floats) {
		grow := 2 * len(a.floats)
		if grow < a.nf+n {
			grow = a.nf + n
		}
		// Outstanding slices keep the old block alive; the arena only tracks
		// the new one, which doubles until a whole level fits.
		a.floats = make([]float64, grow)
		a.nf = 0
	}
	s := a.floats[a.nf : a.nf+n : a.nf+n]
	a.nf += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// Bools returns a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	if a.nb+n > len(a.bools) {
		grow := 2 * len(a.bools)
		if grow < a.nb+n {
			grow = a.nb + n
		}
		a.bools = make([]bool, grow)
		a.nb = 0
	}
	s := a.bools[a.nb : a.nb+n : a.nb+n]
	a.nb += n
	for i := range s {
		s[i] = false
	}
	return s
}

// Ints returns a zeroed []int32 of length n.
func (a *Arena) Ints(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	if a.ni+n > len(a.ints) {
		grow := 2 * len(a.ints)
		if grow < a.ni+n {
			grow = a.ni + n
		}
		a.ints = make([]int32, grow)
		a.ni = 0
	}
	s := a.ints[a.ni : a.ni+n : a.ni+n]
	a.ni += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// batchErr collects the first error raised inside a parallel region.
type batchErr struct {
	mu  sync.Mutex
	err error
}

func (e *batchErr) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *batchErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
