// Package lockfix exercises the "guarded by" annotation checking. The
// limiter struct reproduces the PR 4 /healthz race: counters updated
// under a mutex but snapshotted without it.
package lockfix

import "sync"

type limiter struct {
	mu       sync.Mutex
	requests int64 // guarded by mu
	inflight int   // guarded by mu
	maxSeen  int   // guarded by mu
}

func (l *limiter) admit() {
	l.mu.Lock()
	l.requests++
	l.inflight++
	if l.inflight > l.maxSeen {
		l.maxSeen = l.inflight
	}
	l.mu.Unlock()
}

// snapshot is the PR 4 regression: lock-free reads of guarded counters.
func (l *limiter) snapshot() (int64, int) {
	return l.requests, l.inflight // want `read of l\.requests without holding` `read of l\.inflight without holding`
}

func (l *limiter) snapshotFixed() (int64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requests, l.inflight // ok: deferred unlock keeps the lock held
}

func (l *limiter) reset() {
	l.requests = 0 // want `write of l\.requests without holding`
}

func (l *limiter) afterUnlock() int {
	l.mu.Lock()
	l.requests++
	l.mu.Unlock()
	return l.maxSeen // want `read of l\.maxSeen without holding`
}

type cache struct {
	mu    sync.RWMutex
	items map[string]int // guarded by mu
	hits  int64          // guarded by mu
}

// newCache stays clean: composite-literal initialization does not go
// through a selector.
func newCache() *cache {
	return &cache{items: map[string]int{}}
}

func (c *cache) get(k string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.items[k] // ok: RLock suffices for a read
}

func (c *cache) putUnderRLock(k string, v int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.items[k] = v // want `write of c\.items without holding`
}

func (c *cache) put(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items[k] = v
	c.hits++
}

// lookupOrFill is the memoised-lookup shape: an early-return branch
// unlocks, and the straight-line code re-acquires before writing. The
// clamped depth count must not report the final write.
func (c *cache) lookupOrFill(k string, fill func() int) int {
	c.mu.Lock()
	if v, ok := c.items[k]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := fill()
	c.mu.Lock()
	c.items[k] = v // ok: re-acquired after the early-unlock branch
	c.mu.Unlock()
	return v
}

func (c *cache) addrTaken() *int64 {
	return &c.hits // want `write of c\.hits without holding`
}

func (c *cache) suppressed() int {
	//progqoivet:allow lockguard -- fixture: racy stat read tolerated
	return len(c.items)
}

type stale struct {
	n int // guarded by mux // want `stale annotation`
}

type wrongType struct {
	lock int
	m    map[string]int // guarded by lock // want `stale annotation`
}
