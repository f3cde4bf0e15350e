package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewBudget(t *testing.T) {
	if b := NewBudget(0); b != nil {
		t.Fatalf("NewBudget(0) = %v, want nil", b)
	}
	if b := NewBudget(1); b != nil {
		t.Fatalf("NewBudget(1) = %v, want nil", b)
	}
	b := NewBudget(3)
	if b.Cap() != 3 {
		t.Fatalf("Cap() = %d, want 3", b.Cap())
	}
	var nilB *Budget
	if nilB.Cap() != 0 {
		t.Fatalf("nil Cap() = %d, want 0", nilB.Cap())
	}
}

func TestTryAcquireRelease(t *testing.T) {
	b := NewBudget(2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("two TryAcquire on a 2-token budget must succeed")
	}
	if b.TryAcquire() {
		t.Fatal("third TryAcquire must fail")
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("TryAcquire after Release must succeed")
	}
	b.Release()
	b.Release()

	var nilB *Budget
	if nilB.TryAcquire() {
		t.Fatal("nil budget TryAcquire must fail")
	}
	nilB.Acquire() // must not block or panic
	nilB.Release()
}

// TestForCoversRange checks every element is visited exactly once, for nil and
// non-nil budgets, across sizes around the grain boundaries.
func TestForCoversRange(t *testing.T) {
	budgets := map[string]*Budget{"nil": nil, "b4": NewBudget(4)}
	for name, b := range budgets {
		for _, n := range []int{0, 1, 255, 256, 257, 1000, 4096, 10007} {
			hits := make([]int32, n)
			b.For(n, 256, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("%s n=%d: bad chunk [%d,%d)", name, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s n=%d: element %d visited %d times", name, n, i, h)
				}
			}
		}
	}
}

// TestForChunkDecompositionFixed pins the determinism contract: the set of
// (lo, hi) chunks depends only on (n, grain), not on the budget.
func TestForChunkDecompositionFixed(t *testing.T) {
	collect := func(b *Budget, n, grain int) map[[2]int]bool {
		var mu sync.Mutex
		chunks := make(map[[2]int]bool)
		b.For(n, grain, func(lo, hi int) {
			mu.Lock()
			chunks[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return chunks
	}
	n, grain := 10000, 512
	seq := collect(nil, n, grain)
	for _, workers := range []int{2, 8} {
		par := collect(NewBudget(workers), n, grain)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d chunks, sequential had %d", workers, len(par), len(seq))
		}
		for c := range seq {
			if !par[c] {
				t.Fatalf("workers=%d: chunk %v missing", workers, c)
			}
		}
	}
	chunk := max(grain, 256) // For's floor on the chunk size
	if got, want := len(seq), (n+chunk-1)/chunk; got != want {
		t.Fatalf("observed %d chunks, want ⌈%d/%d⌉ = %d", got, n, chunk, want)
	}
}

// TestForReleasesTokens checks that For returns every borrowed token, so a
// kernel loop cannot leak the sweep's budget dry.
func TestForReleasesTokens(t *testing.T) {
	b := NewBudget(4)
	for iter := 0; iter < 50; iter++ {
		b.For(5000, 256, func(lo, hi int) {})
	}
	got := 0
	for b.TryAcquire() {
		got++
	}
	if got != 4 {
		t.Fatalf("recovered %d tokens of 4 after For loops", got)
	}
}

// TestForOrderedReduction exercises the documented pattern: per-chunk partials
// combined in chunk order must be identical at every worker count.
func TestForOrderedReduction(t *testing.T) {
	n, grain := 100000, 1024
	chunk := max(grain, 256) // For's floor on the chunk size
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+3)
	}
	sum := func(b *Budget) float64 {
		partials := make([]float64, (n+chunk-1)/chunk)
		b.For(n, grain, func(lo, hi int) {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			partials[lo/chunk] = s
		})
		var total float64
		for _, p := range partials {
			total += p
		}
		return total
	}
	want := sum(nil)
	for _, workers := range []int{2, 8} {
		if got := sum(NewBudget(workers)); got != want {
			t.Fatalf("workers=%d: sum %x differs from sequential %x", workers, got, want)
		}
	}
}

// TestForStops: a chunk that stops the budget is the last one For starts
// inline, a stopped budget starts none, helpers included, and a nil budget
// cannot be stopped.
func TestForStops(t *testing.T) {
	b := NewBudget(2)
	b.Acquire()
	b.Acquire() // no spare token: For runs inline
	var ran atomic.Int32
	b.For(4096, 256, func(lo, hi int) {
		ran.Add(1)
		b.Stop()
	})
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d chunks ran, want only the one that stopped the budget", n)
	}
	b.Release()
	b.Release()
	ran.Store(0)
	b.For(4096, 256, func(lo, hi int) { ran.Add(1) })
	b.For(10, 256, func(lo, hi int) { ran.Add(1) })
	if n := ran.Load(); n != 0 || !b.Stopped() {
		t.Fatalf("a stopped budget ran %d chunks", n)
	}
	var nilB *Budget
	nilB.Stop()
	if nilB.Stopped() {
		t.Fatal("a nil budget reports stopped")
	}
}
