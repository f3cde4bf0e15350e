// Package parallel provides the worker budget and the deterministic
// parallel-for the partitioning kernels run on.
//
// A sweep owns ONE Budget sized to its worker count. Level workers acquire a
// token for the duration of a level; kernels inside a level (mondrian
// sub-partition recursion, fusion's batch estimators) borrow whatever tokens
// are left over, non-blockingly, and always fall back to running inline. Total
// goroutine parallelism across the sweep therefore never exceeds the budget —
// level-parallelism and within-level parallelism share one pool instead of
// multiplying into oversubscription.
//
// Determinism contract: nothing scheduled through a Budget may change results
// with the number of tokens available. For enforces it structurally — the
// chunk decomposition depends only on (n, grain), never on how many workers
// picked the chunks up, so kernels that write disjoint chunk outputs (or
// reduce per chunk and combine in chunk order) are bit-identical at every
// worker count, including zero spare tokens.
//
// A budget also carries its owner's stop: once Stop is called, For runs no
// further chunks, so the kernels of work the owner has abandoned (a sweep's
// levels in flight past a stop or a cancel) return early instead of running
// to the end. Their output is then incomplete, and the owner discards it.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Budget is a shared pool of worker tokens. A nil *Budget is valid and means
// "no spare parallelism": every operation runs inline on the caller.
type Budget struct {
	tokens  chan struct{}
	stopped atomic.Bool
}

// NewBudget returns a budget of n tokens. n ≤ 1 returns nil — one worker is
// the caller itself, so there is nothing to share.
func NewBudget(n int) *Budget {
	if n <= 1 {
		return nil
	}
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Cap reports the budget's total token count (0 for nil).
func (b *Budget) Cap() int {
	if b == nil {
		return 0
	}
	return cap(b.tokens)
}

// Acquire blocks until a token is available. Level workers call it once per
// level so kernel borrowing can never oversubscribe past the budget.
func (b *Budget) Acquire() {
	if b != nil {
		<-b.tokens
	}
}

// TryAcquire takes a token without blocking, reporting whether it got one.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return false
	}
	select {
	case <-b.tokens:
		return true
	default:
		return false
	}
}

// tryAcquireN takes up to max tokens without blocking and returns how many it
// got.
func (b *Budget) tryAcquireN(max int) int {
	got := 0
	for got < max && b.TryAcquire() {
		got++
	}
	return got
}

// Release returns one token to the pool.
func (b *Budget) Release() {
	if b != nil {
		b.tokens <- struct{}{}
	}
}

// Stop marks the work on the budget abandoned: For starts no chunk after
// it. Stop on a nil budget does nothing.
func (b *Budget) Stop() {
	if b != nil {
		b.stopped.Store(true)
	}
}

// Stopped reports whether Stop was called.
func (b *Budget) Stopped() bool { return b != nil && b.stopped.Load() }

// minGrain is the floor on chunk size: below it the chunk bookkeeping costs
// more than the work it would spread.
const minGrain = 256

// For runs fn over every chunk of [0, n). The decomposition is fixed by
// (n, grain) alone: grain is raised to at least 256, and the chunks are
// [0,grain), [grain,2·grain), …, so the set of fn calls — and therefore any
// per-chunk output — is identical whether the chunks ran on one goroutine or
// many. Spare tokens (up to the budget) add helper goroutines that pull
// chunks from a shared counter; the caller always works too, so For never
// blocks on an empty budget. fn must treat chunks as independent: it may be
// called concurrently with itself for different chunks.
//
// Callers reducing across chunks must combine per-chunk partials in chunk
// order (the chunk starting at lo is number lo/max(grain, 256)) to stay
// deterministic; callers writing disjoint element ranges need nothing more.
//
// Once the budget is stopped, For starts no further chunk and returns when
// the chunks already started end, leaving the rest unrun.
func (b *Budget) For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < minGrain {
		grain = minGrain
	}
	chunks := (n + grain - 1) / grain
	if chunks == 1 {
		if !b.Stopped() {
			fn(0, n)
		}
		return
	}
	helpers := 0
	if b != nil {
		want := chunks - 1
		if want > b.Cap() {
			want = b.Cap()
		}
		helpers = b.tryAcquireN(want)
	}
	if helpers == 0 {
		for c := 0; c < chunks && !b.Stopped(); c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	var next atomicCounter
	work := func() {
		for {
			c := next.inc() - 1
			if c >= chunks || b.Stopped() {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer wg.Done()
			defer b.Release()
			work()
		}()
	}
	work()
	wg.Wait()
}

// atomicCounter is a minimal atomic int64 counter.
type atomicCounter struct {
	mu sync.Mutex
	v  int
}

func (c *atomicCounter) inc() int {
	c.mu.Lock()
	c.v++
	v := c.v
	c.mu.Unlock()
	return v
}
