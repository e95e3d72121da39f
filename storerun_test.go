package progqoi

// storerun_test.go checks how a store-backed (s3://) session reads
// fragments: one ranged GET per run of consecutive fragment indices of a
// variable, starting at the first fragment's section-length prefix, every
// prefix checked against the recorded length before the run is installed,
// and runs installed before a failure kept for the retry.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"path"
	"sync"
	"testing"

	"progqoi/internal/encoding"
	"progqoi/internal/storage"
)

// rangedGet is one ranged read: the store key and the byte range
// [off, off+n) it asked for.
type rangedGet struct {
	key    string
	off, n int64
}

// rangeLog is an http.RoundTripper that records the Range header of every
// ranged GET passing through it.
type rangeLog struct {
	tr   *http.Transport
	mu   sync.Mutex
	gets []rangedGet // guarded by mu
}

func (l *rangeLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if h := req.Header.Get("Range"); h != "" {
		var first, last int64
		if _, err := fmt.Sscanf(h, "bytes=%d-%d", &first, &last); err != nil {
			return nil, fmt.Errorf("unparsable Range %q: %w", h, err)
		}
		l.mu.Lock()
		l.gets = append(l.gets, rangedGet{path.Base(req.URL.Path), first, last - first + 1})
		l.mu.Unlock()
	}
	return l.tr.RoundTrip(req)
}

func (l *rangeLog) snapshot() []rangedGet {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]rangedGet(nil), l.gets...)
}

// TestStoreRunsLadderMatchesLocal walks a 1e-1…1e-5 ladder on an s3://
// session over miniobj and on a local session of the same archive. Every
// rung must be bit-identical, and every ranged GET must be one maximal
// run of consecutive fragments of one variable within its iteration,
// starting at the first fragment's section-length prefix.
func TestStoreRunsLadderMatchesLocal(t *testing.T) {
	srv, arch, ds := seedBucket(t)
	ctx := context.Background()
	vars, ranges, err := storage.ReadArchiveRanged(ctx, bucketStore(t, srv, nil), "ge")
	if err != nil {
		t.Fatal(err)
	}
	varOf := map[string]int{}
	for v, vr := range vars {
		varOf[storage.VarKey("ge", vr.Name)] = v
	}

	log := &rangeLog{tr: &http.Transport{}}
	t.Cleanup(log.tr.CloseIdleConnections)
	sarch := openBucket(t, srv, WithCache(-1), WithHTTPClient(&http.Client{Transport: log}))
	opened := sarch.StoreStats()
	var fragments int
	ssess, err := sarch.Open(WithFetchObserver(func(int, int64) { fragments++ }))
	if err != nil {
		t.Fatal(err)
	}
	lsess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}

	vtot := TotalVelocity(0, 1, 2)
	temp, err := ParseQoI("T", "Pressure/(287.1*Density)", ds.FieldNames)
	if err != nil {
		t.Fatal(err)
	}
	qois := []QoI{vtot, temp}
	qranges := QoIRanges(qois, ds.Fields)
	var iterEnds []int // len(log.gets) after each iteration
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		req := Request{}
		for i, q := range qois {
			req.Targets = append(req.Targets, Target{QoI: q, Tolerance: rel, Relative: true, Range: qranges[i]})
		}
		local, err := lsess.Do(ctx, req)
		if err != nil {
			t.Fatalf("local rel %g: %v", rel, err)
		}
		req.OnProgress = func(Iteration) { iterEnds = append(iterEnds, len(log.snapshot())) }
		remote, err := ssess.Do(ctx, req)
		if err != nil {
			t.Fatalf("s3 rel %g: %v", rel, err)
		}
		mustEqualResults(t, local, remote)
	}

	gets := log.snapshot()
	var covered, getBytes int64
	start := 0
	for it, end := range iterEnds {
		runs := map[int][][2]int{} // variable -> [first, last] fragment of each GET
		for _, g := range gets[start:end] {
			v, ok := varOf[g.key]
			if !ok {
				t.Fatalf("ranged GET of %q, not a variable blob", g.key)
			}
			first, last := -1, -1
			for i, r := range ranges[v] {
				if r.Off-4 == g.off {
					first = i
				}
				if r.Off+r.Len == g.off+g.n {
					last = i
				}
			}
			if first < 0 || last < first {
				t.Fatalf("iteration %d: GET %s [%d,+%d) is not a run starting at a section prefix", it, g.key, g.off, g.n)
			}
			for _, o := range runs[v] {
				if first <= o[1]+1 && o[0] <= last+1 {
					t.Fatalf("iteration %d: %s runs %v and [%d %d] overlap or touch: not one GET per run", it, g.key, o, first, last)
				}
			}
			runs[v] = append(runs[v], [2]int{first, last})
			covered += int64(last - first + 1)
			getBytes += g.n
		}
		start = end
	}
	if start != len(gets) {
		t.Fatalf("%d ranged GETs outside any iteration", len(gets)-start)
	}

	st := sarch.StoreStats()
	cold, coldBytes := st.ColdFetches-opened.ColdFetches, st.ColdFetchBytes-opened.ColdFetchBytes
	if cold != int64(len(gets)) {
		t.Fatalf("ColdFetches %d, want the %d (iteration, variable) runs", cold, len(gets))
	}
	if covered != int64(fragments) || cold >= int64(fragments) {
		t.Fatalf("%d runs cover %d fragments; the session ingested %d (want runs < fragments)", cold, covered, fragments)
	}
	if want := ssess.RetrievedBytes() + 4*int64(fragments); coldBytes != getBytes || coldBytes != want {
		t.Fatalf("cold fragment bytes %d, GET bytes %d, want RetrievedBytes + 4 B per fragment = %d", coldBytes, getBytes, want)
	}
}

// faultyRangeStore serves an archive from memory, records every ranged
// read, and lets fault rewrite or fail the read numbered call.
type faultyRangeStore struct {
	*storage.MemStore
	fault func(call int, b []byte) ([]byte, error)

	mu    sync.Mutex
	calls []rangedGet // guarded by mu
}

func (s *faultyRangeStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	b, err := s.MemStore.GetRange(ctx, key, off, n)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	call := len(s.calls)
	s.calls = append(s.calls, rangedGet{key, off, n})
	s.mu.Unlock()
	return s.fault(call, b)
}

func (s *faultyRangeStore) snapshot() []rangedGet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]rangedGet(nil), s.calls...)
}

// openFaulty packs arch into a faultyRangeStore and opens it the way an
// s3:// reference is opened.
func openFaulty(t *testing.T, arch *Archive, fault func(int, []byte) ([]byte, error)) (*Archive, *faultyRangeStore) {
	t.Helper()
	st := &faultyRangeStore{MemStore: storage.NewMemStore(), fault: fault}
	if err := storage.WriteArchive(context.Background(), st, "ge", arch.Variables()); err != nil {
		t.Fatal(err)
	}
	a, err := openStoreArchive(context.Background(), st, "ge")
	if err != nil {
		t.Fatal(err)
	}
	return a, st
}

// TestStoreRunCorruptPrefix flips one byte of the last section-length
// prefix inside the first run read: the session must fail with
// encoding.ErrCorrupt instead of installing the run.
func TestStoreRunCorruptPrefix(t *testing.T) {
	_, arch, ds := seedBucket(t)
	sarch, _ := openFaulty(t, arch, func(call int, b []byte) ([]byte, error) {
		if call == 0 {
			off := 0
			for n := int(binary.LittleEndian.Uint32(b[off:])); off+4+n < len(b); n = int(binary.LittleEndian.Uint32(b[off:])) {
				off += 4 + n
			}
			b[off] ^= 0x01
		}
		return b, nil
	})
	sess, err := sarch.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(context.Background(), clusterRequest(t, ds.FieldNames)); !errors.Is(err, encoding.ErrCorrupt) {
		t.Fatalf("Do over a corrupt section prefix = %v, want encoding.ErrCorrupt", err)
	}
}

// TestStoreRunFailureKeepsEarlierRuns fails the second run of the first
// iteration once. The first run stays installed, so the retry asks for
// the failed run next and never for the first one again, and it ends
// bit-identical to a local session.
func TestStoreRunFailureKeepsEarlierRuns(t *testing.T) {
	_, arch, ds := seedBucket(t)
	errInjected := errors.New("injected range failure")
	sarch, st := openFaulty(t, arch, func(call int, b []byte) ([]byte, error) {
		if call == 1 {
			return nil, errInjected
		}
		return b, nil
	})
	req := clusterRequest(t, ds.FieldNames)
	local := doOnce(t, arch, req)
	sess, err := sarch.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(context.Background(), req); !errors.Is(err, errInjected) {
		t.Fatalf("Do with a failing run = %v, want the injected error", err)
	}
	calls := st.snapshot()
	if len(calls) != 2 {
		t.Fatalf("%d ranged reads before the failure surfaced, want 2", len(calls))
	}
	res, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	mustEqualResults(t, local, res)
	retry := st.snapshot()[2:]
	if len(retry) == 0 || retry[0] != calls[1] {
		t.Fatalf("retry began with %v, want the failed run %v", retry, calls[1])
	}
	for _, c := range retry {
		if c == calls[0] {
			t.Fatalf("retry refetched the installed run %v", c)
		}
	}
}
