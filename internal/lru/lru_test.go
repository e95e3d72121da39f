package lru

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// op is one step of a table case: add key with a size-byte value, get key
// (expecting hit), or drop every key with the given prefix.
type op struct {
	do   string
	key  string
	size int
	hit  bool
}

func add(key string, size int) op { return op{do: "add", key: key, size: size} }
func get(key string, hit bool) op { return op{do: "get", key: key, hit: hit} }
func drop(prefix string) op       { return op{do: "drop", key: prefix} }

func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capBytes int64
		ops      []op
		want     Stats
		resident string // surviving keys, most recently used first
	}{
		{
			name: "hit returns the value and counts", capBytes: 100,
			ops:  []op{add("a", 10), get("a", true), get("b", false)},
			want: Stats{Bytes: 10, Entries: 1, Hits: 1, Misses: 1}, resident: "a",
		},
		{
			name: "byte pressure evicts the least recently used", capBytes: 30,
			ops:  []op{add("a", 10), add("b", 10), add("c", 10), get("a", true), add("d", 10)},
			want: Stats{Bytes: 30, Entries: 3, Hits: 1, Evictions: 1}, resident: "d a c",
		},
		{
			name: "one large value evicts as many as it takes", capBytes: 30,
			ops:  []op{add("a", 10), add("b", 10), add("c", 10), add("d", 25)},
			want: Stats{Bytes: 25, Entries: 1, Evictions: 3}, resident: "d",
		},
		{
			name: "re-adding a key replaces its value and its size", capBytes: 30,
			ops:  []op{add("a", 10), add("b", 10), add("a", 20)},
			want: Stats{Bytes: 30, Entries: 2}, resident: "a b",
		},
		{
			name: "a growing re-add can evict others", capBytes: 30,
			ops:  []op{add("a", 10), add("b", 10), add("c", 10), add("c", 25)},
			want: Stats{Bytes: 25, Entries: 1, Evictions: 2}, resident: "c",
		},
		{
			// The bug of the client and server caches this package replaced:
			// they admitted the value, then evicted from the back until the
			// size fit — flushing every entry and finally the new one too.
			name: "an oversize value is refused and evicts nothing", capBytes: 30,
			ops: []op{add("a", 10), add("b", 10), add("c", 10), add("huge", 31),
				get("huge", false), get("a", true), get("b", true), get("c", true)},
			want: Stats{Bytes: 30, Entries: 3, Hits: 3, Misses: 1}, resident: "c b a",
		},
		{
			name: "an oversize re-add keeps the resident value", capBytes: 30,
			ops:  []op{add("a", 10), add("a", 31), get("a", true)},
			want: Stats{Bytes: 10, Entries: 1, Hits: 1}, resident: "a",
		},
		{
			name: "a value of exactly the capacity fits", capBytes: 30,
			ops:  []op{add("a", 10), add("b", 30)},
			want: Stats{Bytes: 30, Entries: 1, Evictions: 1}, resident: "b",
		},
		{
			name: "zero capacity stores nothing", capBytes: 0,
			ops:  []op{add("a", 10), add("empty", 0), get("a", false), get("empty", false)},
			want: Stats{Misses: 2},
		},
		{
			name: "negative capacity stores nothing", capBytes: -1,
			ops:  []op{add("a", 1), get("a", false)},
			want: Stats{Misses: 1},
		},
		{
			name: "DropFunc removes matches without counting evictions", capBytes: 100,
			ops: []op{add("r\x00k\x000", 10), add("g\x00k", 10), add("r\x00k\x001", 10), add("r\x00other\x000", 10),
				drop("r\x00k\x00"), get("r\x00k\x000", false), get("r\x00k\x001", false), get("g\x00k", true)},
			want: Stats{Bytes: 20, Entries: 2, Hits: 1, Misses: 2}, resident: "g\x00k r\x00other\x000",
		},
		{
			name: "dropped bytes are free for new entries", capBytes: 20,
			ops:  []op{add("a", 10), add("b", 10), drop("a"), add("c", 10)},
			want: Stats{Bytes: 20, Entries: 2}, resident: "c b",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.capBytes)
			for i, o := range tc.ops {
				switch o.do {
				case "add":
					c.Add(o.key, make([]byte, o.size))
				case "get":
					v, ok := c.Get(o.key)
					if ok != o.hit {
						t.Fatalf("op %d: Get(%q) hit = %v, want %v", i, o.key, ok, o.hit)
					}
					if ok && int64(len(v)) > tc.capBytes {
						t.Fatalf("op %d: Get(%q) returned %d bytes from a %d-byte cache", i, o.key, len(v), tc.capBytes)
					}
				case "drop":
					c.DropFunc(func(k string) bool { return strings.HasPrefix(k, o.key) })
				}
			}
			if got := c.Stats(); got != tc.want {
				t.Fatalf("stats %+v, want %+v", got, tc.want)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			var resident []string
			for el := c.ll.Front(); el != nil; el = el.Next() {
				resident = append(resident, el.Value.(*entry).key)
			}
			if got := strings.Join(resident, " "); got != tc.resident {
				t.Fatalf("resident %q, want %q", got, tc.resident)
			}
			if len(c.items) != len(resident) {
				t.Fatalf("index holds %d keys for %d resident entries", len(c.items), len(resident))
			}
		})
	}
}

// TestConcurrentChurn hammers one cache with readers, writers, droppers
// and snapshotters whose working set exceeds capacity, so gets, adds,
// re-inserts of just-evicted keys, evictions and drops interleave
// constantly. Under -race this proves the lock discipline; the post-hammer
// checks prove the byte accounting survives the churn.
func TestConcurrentChurn(t *testing.T) {
	const (
		workers = 8
		rounds  = 400
		keys    = 64
		valSize = 512
		fit     = keys / 4 // capacity holds a quarter of the key space
	)
	c := New(fit * valSize)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, valSize)
			for r := 0; r < rounds; r++ {
				// A per-worker stride keeps access orders different and
				// LRU positions shuffling.
				k := fmt.Sprintf("k%d", (r*(w+1))%keys)
				if v, ok := c.Get(k); ok {
					if len(v) != valSize {
						t.Errorf("got %d-byte value for %s, want %d", len(v), k, valSize)
						return
					}
				} else {
					c.Add(k, val)
				}
				switch {
				case r%16 == w:
					if st := c.Stats(); st.Bytes != int64(st.Entries*valSize) {
						t.Errorf("torn snapshot: %d bytes for %d entries", st.Bytes, st.Entries)
						return
					}
				case r%100 == 10*w:
					c.DropFunc(func(key string) bool { return key == k })
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > fit*valSize || st.Entries > fit {
		t.Fatalf("cache holds %d bytes in %d entries, capacity %d in %d", st.Bytes, st.Entries, fit*valSize, fit)
	}
	if st.Bytes != int64(st.Entries*valSize) {
		t.Fatalf("size accounting drifted: %d bytes for %d entries of %d", st.Bytes, st.Entries, valSize)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("churn produced no misses (%d) or no evictions (%d)", st.Misses, st.Evictions)
	}
	// Every loop iteration does exactly one Get; Stats and DropFunc touch
	// neither counter.
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, workers*rounds)
	}
}
