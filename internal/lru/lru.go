// Package lru is the one byte-bounded LRU of the fetch path: the client's
// fragment cache, the server's hot-fragment cache and the object store's
// read-through cache are all a Cache. Values are held by reference —
// every payload cached here is immutable once fetched — so a hit costs no
// copy. A Cache is safe for concurrent use.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU over string keys whose resident values
// never sum to more than its capacity in bytes.
type Cache struct {
	mu       sync.Mutex
	capBytes int64                    // immutable after New
	ll       *list.List               // guarded by mu; front = most recently used
	items    map[string]*list.Element // guarded by mu
	st       Stats                    // guarded by mu; Entries is filled in by Stats
}

type entry struct {
	key string
	val []byte
}

// Stats is one consistent snapshot of a Cache's counters.
type Stats struct {
	Bytes     int64 // resident value bytes
	Entries   int   // resident values
	Hits      int64 // Gets that found their key
	Misses    int64 // Gets that did not
	Evictions int64 // values pushed out by Add under byte pressure
}

// New returns a cache bounded to capBytes. A capacity of zero or less
// stores nothing: every Get misses, which is slower but correct.
func New(capBytes int64) *Cache {
	return &Cache{capBytes: capBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.st.Misses++
		return nil, false
	}
	c.st.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Add caches val under key, replacing any previous value, and evicts from
// the least recently used end until the byte bound holds again. A value
// larger than the whole capacity is refused outright: admitting it would
// flush every resident entry and then the value itself.
func (c *Cache) Add(key string, val []byte) {
	if c.capBytes <= 0 || int64(len(val)) > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.st.Bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.st.Bytes += int64(len(val))
	}
	for c.st.Bytes > c.capBytes {
		e := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.items, e.key)
		c.st.Bytes -= int64(len(e.val))
		c.st.Evictions++
	}
}

// DropFunc removes every entry whose key satisfies drop — invalidation,
// not byte pressure, so Evictions does not move. drop runs under the
// cache's lock and must not call back into the cache.
func (c *Cache) DropFunc(drop func(key string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*entry); drop(e.key) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.st.Bytes -= int64(len(e.val))
		}
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = c.ll.Len()
	return st
}
