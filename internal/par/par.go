// Package par is the one executor behind every Workers-bounded loop: a
// Budget of worker slots shared by every For call made under it, however
// deeply the calls nest.
//
// The goroutine that calls For always runs tasks itself. Extra goroutines
// start only on tokens that are idle at that moment, so a For nested
// inside another For's task runs inline while the budget is busy and
// spreads out as slots free up. Nesting therefore cannot deadlock or run
// more than Workers tasks at once, and callers never split the budget by
// hand.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget bounds how many goroutines run tasks at once across all the For
// calls made under it. It holds workers−1 helper tokens; the goroutine
// that calls the outermost For is the remaining worker. For calls nested
// in tasks may run concurrently with each other; each goroutine outside
// the budget that calls For concurrently with another adds itself on top
// of the bound.
type Budget struct {
	workers int
	idle    atomic.Int64 // helper tokens free to take
}

// New returns a Budget of workers concurrent workers; workers ≤ 0 means
// runtime.GOMAXPROCS(0).
func New(workers int) *Budget {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Budget{workers: workers}
	b.idle.Store(int64(workers - 1))
	return b
}

// Workers returns the bound: the most goroutines that run tasks at once.
func (b *Budget) Workers() int { return b.workers }

// take claims an idle token without waiting.
func (b *Budget) take() bool {
	for {
		n := b.idle.Load()
		if n <= 0 {
			return false
		}
		if b.idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// For runs fn(w, i) for every i in [0, n) and returns once every task it
// started has finished. Workers pull indices from one shared counter, so
// tasks start in increasing i, but they may finish in any order. w
// identifies the worker running the task: the calling goroutine is worker
// 0, and w is unique among the call's workers and less than
// min(n, Workers()), so fn may index per-worker scratch by it. When fn
// returns false no further index is handed out; tasks already running
// finish. With n ≤ 1 or a budget of one worker, fn runs inline in index
// order and no goroutine starts.
func (b *Budget) For(n int, fn func(w, i int) bool) {
	helpers := int64(min(n, b.workers) - 1)
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			if !fn(0, i) {
				return
			}
		}
		return
	}
	l := &loop{b: b, n: n, helpers: helpers, fn: fn}
	l.run(0)
	l.wg.Wait()
}

// loop is the shared state of one For call with room for helpers.
type loop struct {
	b       *Budget
	n       int
	helpers int64 // most helpers the call may start
	fn      func(w, i int) bool

	next, started atomic.Int64
	stop          atomic.Bool
	wg            sync.WaitGroup
}

// run is worker w's share of the call: claim indices until none are left
// or a task returned false.
func (l *loop) run(w int) {
	for !l.stop.Load() {
		// Before claiming an index, recruit a helper for the ones after it
		// if a token is idle: a nested For that found the budget busy picks
		// up slots as other workers finish.
		if l.started.Load() < l.helpers && l.next.Load() < int64(l.n-1) && l.b.take() {
			if h := l.started.Add(1); h <= l.helpers {
				l.wg.Add(1)
				go l.help(int(h))
			} else {
				l.b.idle.Add(1) // another worker recruited the last helper
			}
		}
		i := int(l.next.Add(1)) - 1
		if i >= l.n {
			return
		}
		if !l.fn(w, i) {
			l.stop.Store(true)
			return
		}
	}
}

// help runs a helper goroutine and gives its token back.
func (l *loop) help(w int) {
	defer l.wg.Done()
	l.run(w)
	l.b.idle.Add(1)
}
