package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			b := New(workers)
			counts := make([]atomic.Int32, n)
			b.For(n, func(_, i int) bool {
				counts[i].Add(1)
				return true
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, c)
				}
			}
			if got := b.idle.Load(); got != int64(workers-1) {
				t.Fatalf("workers %d, n %d: %d idle tokens after For, want %d", workers, n, got, workers-1)
			}
		}
	}
}

// spin keeps a worker busy without sleeping, so the scheduler has every
// chance to overlap workers.
func spin() {
	for i := 0; i < 2000; i++ {
		runtime.Gosched()
		if i%500 == 0 {
			time.Sleep(time.Microsecond)
		}
	}
}

// TestNestedPeakWithinBudget runs three levels of nested For. Every level
// does some work of its own before nesting, and the number of goroutines
// inside such a section at once must never exceed the budget.
func TestNestedPeakWithinBudget(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		b := New(workers)
		var active, peak, leaves atomic.Int64
		work := func() {
			a := active.Add(1)
			for {
				p := peak.Load()
				if a <= p || peak.CompareAndSwap(p, a) {
					break
				}
			}
			spin()
			active.Add(-1)
		}
		b.For(4, func(_, _ int) bool {
			work()
			b.For(3, func(_, _ int) bool {
				work()
				b.For(5, func(_, _ int) bool {
					work()
					leaves.Add(1)
					return true
				})
				return true
			})
			return true
		})
		if got := leaves.Load(); got != 4*3*5 {
			t.Fatalf("workers %d: %d leaf tasks ran, want %d", workers, got, 4*3*5)
		}
		if p := peak.Load(); p > int64(workers) {
			t.Fatalf("workers %d: peak %d concurrent tasks", workers, p)
		}
		if got := b.idle.Load(); got != int64(workers-1) {
			t.Fatalf("workers %d: %d idle tokens after For, want %d", workers, got, workers-1)
		}
	}
}

// TestNestedNoDeadlock nests four levels deep on the smallest budgets,
// where every inner For finds no idle token, and requires it to finish.
func TestNestedNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2} {
		b := New(workers)
		done := make(chan int64)
		go func() {
			var leaves atomic.Int64
			var nest func(depth int)
			nest = func(depth int) {
				b.For(4, func(_, _ int) bool {
					if depth == 0 {
						leaves.Add(1)
						return true
					}
					nest(depth - 1)
					return true
				})
			}
			for rep := 0; rep < 20; rep++ {
				nest(3)
			}
			done <- leaves.Load()
		}()
		select {
		case got := <-done:
			if want := int64(20 * 4 * 4 * 4 * 4); got != want {
				t.Fatalf("workers %d: %d leaf tasks ran, want %d", workers, got, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers %d: nested For did not finish", workers)
		}
	}
}

// TestEarlyStop: after fn returns false, a worker that had not yet
// claimed an index gets none. Only the other workers can each start one
// task already claimed, and For returns only after every started task has
// finished.
func TestEarlyStop(t *testing.T) {
	const n, stopAt = 1000, 40
	for _, workers := range []int{1, 2, 8} {
		b := New(workers)
		var stopped atomic.Bool
		var started, finished, late atomic.Int64
		b.For(n, func(_, i int) bool {
			started.Add(1)
			defer finished.Add(1)
			if stopped.Load() {
				late.Add(1)
			}
			if i == stopAt {
				stopped.Store(true)
				return false
			}
			time.Sleep(100 * time.Microsecond)
			return true
		})
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("workers %d: For returned with %d of %d started tasks finished", workers, f, s)
		}
		if l := late.Load(); l > int64(workers-1) {
			t.Fatalf("workers %d: %d tasks started after the stop, want at most %d", workers, l, workers-1)
		}
		if s := started.Load(); s >= n {
			t.Fatalf("workers %d: all %d tasks ran despite the stop", workers, s)
		}
		if workers == 1 && started.Load() != stopAt+1 {
			t.Fatalf("sequential: %d tasks ran, want %d", started.Load(), stopAt+1)
		}
	}
}

// TestWorkerIDs: w is below min(n, workers) and no two concurrent tasks of
// one call share it, so it can index per-worker scratch.
func TestWorkerIDs(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{3, 64} {
			b := New(workers)
			limit := min(n, workers)
			inUse := make([]atomic.Bool, limit)
			b.For(n, func(w, _ int) bool {
				if w < 0 || w >= limit {
					t.Errorf("workers %d, n %d: w = %d outside [0, %d)", workers, n, w, limit)
					return false
				}
				if !inUse[w].CompareAndSwap(false, true) {
					t.Errorf("workers %d, n %d: w = %d used by two tasks at once", workers, n, w)
					return false
				}
				spin()
				inUse[w].Store(false)
				return true
			})
		}
	}
}

// TestSmallNRunsInline: zero or one task never touches the tokens or
// starts a goroutine, whatever the budget.
func TestSmallNRunsInline(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		b := New(workers)
		b.For(0, func(_, _ int) bool {
			t.Fatalf("workers %d: fn called for n = 0", workers)
			return true
		})
		before := runtime.NumGoroutine()
		calls := 0
		b.For(1, func(w, i int) bool {
			calls++
			if w != 0 || i != 0 {
				t.Fatalf("workers %d: fn(%d, %d), want fn(0, 0)", workers, w, i)
			}
			// Goroutines of earlier tests may still be exiting, so only a
			// rise counts.
			if got := runtime.NumGoroutine(); got > before {
				t.Fatalf("workers %d: %d goroutines inside fn, %d before For", workers, got, before)
			}
			if got := b.idle.Load(); got != int64(workers-1) {
				t.Fatalf("workers %d: a token was taken for n = 1", workers)
			}
			return true
		})
		if calls != 1 {
			t.Fatalf("workers %d: fn ran %d times for n = 1", workers, calls)
		}
	}
}

// TestBusyForRecruitsFreedToken: a For that starts while every token is
// taken runs inline, and takes a helper as soon as a token comes back.
func TestBusyForRecruitsFreedToken(t *testing.T) {
	b := New(2)
	if !b.take() {
		t.Fatal("fresh budget of 2 has no idle token")
	}
	var helped atomic.Bool
	b.For(50, func(w, i int) bool {
		if i < 5 && w != 0 {
			t.Errorf("task %d ran on worker %d while the budget was busy", i, w)
		}
		if i == 5 {
			b.idle.Add(1) // the other user of the budget finishes
		}
		if w == 1 {
			helped.Store(true)
		}
		time.Sleep(200 * time.Microsecond)
		return true
	})
	if !helped.Load() {
		t.Fatal("no task ran on a helper after the token was freed")
	}
	if got := b.idle.Load(); got != 1 {
		t.Fatalf("%d idle tokens after For, want 1", got)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want %d", got, want)
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("New(3).Workers() = %d", got)
	}
}
