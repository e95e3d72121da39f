package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"progqoi/internal/datagen"
	"progqoi/internal/par"
	"progqoi/internal/progressive"
)

// metaOnly strips fragment payloads the way a transport's open does:
// every slot present, every payload absent.
func metaOnly(vars []*Variable) []*Variable {
	out := make([]*Variable, len(vars))
	for i, v := range vars {
		stripped := *v.Ref
		stripped.Fragments = make([][]byte, len(v.Ref.Fragments))
		cv := *v
		cv.Ref = &stripped
		out[i] = &cv
	}
	return out
}

var errTransport = errors.New("fake transport down")

// fakeTransport serves payloads out of fully resident variables and
// records what it was asked for. failAfter >= 0 makes the next call fail
// once it has installed that many payloads.
type fakeTransport struct {
	src       []*Variable
	calls     [][][]int // want of every call, in order
	failAfter int
}

func (f *fakeTransport) fetch(_ context.Context, _ *par.Budget, want [][]int, install func(v, frag int, payload []byte)) error {
	call := make([][]int, len(want))
	for v := range want {
		call[v] = append([]int(nil), want[v]...)
	}
	f.calls = append(f.calls, call)
	for v, idxs := range want {
		for _, fi := range idxs {
			if f.failAfter == 0 {
				f.failAfter = -1
				return errTransport
			}
			f.failAfter--
			install(v, fi, f.src[v].Ref.Fragments[fi])
		}
	}
	return nil
}

// requested flattens the recorded calls into (variable, fragment) → times
// asked for.
func (f *fakeTransport) requested() map[[2]int]int {
	out := map[[2]int]int{}
	for _, call := range f.calls {
		for v, idxs := range call {
			for _, fi := range idxs {
				out[[2]int{v, fi}]++
			}
		}
	}
	return out
}

// TestLazyRetrieverPlansOntoTransport drives the prefetch hook directly:
// each step is one iteration's plan, with the want the transport must see
// (nil: it must not be called) or the error the hook must return.
func TestLazyRetrieverPlansOntoTransport(t *testing.T) {
	_, vars, _ := lazyRequest(t)
	n0 := len(vars[0].Ref.Fragments)
	type step struct {
		need    [][]int
		want    [][]int
		wantErr string
	}
	plan := func(v0, v1 []int) [][]int {
		p := make([][]int, len(vars))
		p[0], p[1] = v0, v1
		return p
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"index past the fragment count is an error before any fetch", []step{
			{need: plan([]int{0, n0}, nil), wantErr: fmt.Sprintf("/%d of %d", n0, n0)},
		}},
		{"negative index is an error before any fetch", []step{
			{need: plan([]int{0}, []int{-1}), wantErr: "/-1 of "},
		}},
		{"a rejected plan installs nothing", []step{
			{need: plan([]int{0, 1, n0}, nil), wantErr: " of "},
			{need: plan([]int{0, 1}, nil), want: plan([]int{0, 1}, nil)},
		}},
		{"installed fragments are not requested again", []step{
			{need: plan([]int{0, 1, 2}, []int{0}), want: plan([]int{0, 1, 2}, []int{0})},
			{need: plan([]int{0, 1, 2, 3}, []int{0}), want: plan([]int{3}, nil)},
			{need: plan([]int{0, 1, 2, 3}, []int{0}), want: nil},
			{need: plan(nil, []int{0, 1}), want: plan(nil, []int{1})},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := &fakeTransport{src: vars, failAfter: -1}
			rt, err := NewLazyRetriever(metaOnly(vars), Config{}, nil, ft.fetch, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range tc.steps {
				before := len(ft.calls)
				err := rt.prefetch(context.Background(), st.need)
				if st.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), st.wantErr) {
						t.Fatalf("step %d: error %v, want one containing %q", i, err, st.wantErr)
					}
				} else if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				switch got := ft.calls[before:]; {
				case st.want == nil && len(got) != 0:
					t.Fatalf("step %d: transport called with %v, want no call", i, got[0])
				case st.want != nil && (len(got) != 1 || !reflect.DeepEqual(got[0], st.want)):
					t.Fatalf("step %d: transport calls %v, want one with %v", i, got, st.want)
				}
			}
		})
	}
}

// lazyFixture is a small refactored dataset, a one-QoI request tight
// enough to need several iterations and many fragments, and the result a
// session over the resident fragments gets for it. Built once: the lazy
// tests only read it.
var lazyFixture struct {
	once sync.Once
	vars []*Variable
	req  Request
	ref  *Result
	err  error
}

func lazyRequest(t *testing.T) (Request, []*Variable, *Result) {
	t.Helper()
	f := &lazyFixture
	f.once.Do(func() {
		ds := datagen.GE("GE-lazy", 4, 128, 7)
		f.vars = refactorDataset(t, ds, progressive.PMGARDHB)
		f.req = Request{Targets: relTargets(ds.QoIs[:1], 1e-5, QoIRanges(ds.QoIs, ds.Fields))}
		var rt *Retriever
		if rt, f.err = NewRetriever(f.vars, Config{}, nil); f.err == nil {
			f.ref, f.err = rt.Retrieve(context.Background(), f.req)
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.req, f.vars, f.ref
}

// TestLazyRetrieverResumesAfterTransportError: a transport failure
// surfaces from Retrieve, the slots it did not fill stay empty, and the
// next Retrieve asks only for those — ending bit-identical to a session
// over resident fragments.
func TestLazyRetrieverResumesAfterTransportError(t *testing.T) {
	req, vars, ref := lazyRequest(t)
	ft := &fakeTransport{src: vars, failAfter: 3}
	rt, err := NewLazyRetriever(metaOnly(vars), Config{}, nil, ft.fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Retrieve(context.Background(), req); !errors.Is(err, errTransport) {
		t.Fatalf("first Retrieve: %v, want the transport's error", err)
	}
	if len(ft.calls) != 1 {
		t.Fatalf("%d transport calls before the failure surfaced, want 1", len(ft.calls))
	}
	filled := 0
	for _, v := range rt.vars {
		for _, f := range v.Ref.Fragments {
			if len(f) != 0 {
				filled++
			}
		}
	}
	if filled != 3 {
		t.Fatalf("%d slots filled after a failure following 3 installs", filled)
	}
	res, err := rt.Retrieve(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed Retrieve: %v", err)
	}
	// The failed call asked for more than it delivered, so exactly the
	// undelivered fragments are asked for twice; everything delivered —
	// before or after the failure — is asked for once.
	twice := 0
	for _, n := range ft.requested() {
		if n > 2 {
			t.Fatalf("a fragment was requested %d times", n)
		}
		if n == 2 {
			twice++
		}
	}
	first := 0
	for _, idxs := range ft.calls[0] {
		first += len(idxs)
	}
	if twice != first-3 {
		t.Fatalf("%d fragments re-requested, want the %d the failed call left unfilled", twice, first-3)
	}
	if !reflect.DeepEqual(res.Data, ref.Data) || !reflect.DeepEqual(res.EstErrors, ref.EstErrors) {
		t.Fatal("resumed lazy session differs from a resident session")
	}
}

// TestLazySessionsOwnTheirSlots: concurrent sessions over the same
// meta-only variables each fetch everything themselves — neither sees the
// other's payloads, and the shared metadata's slots stay empty. Run under
// -race, a shared slot would also be a reported data race.
func TestLazySessionsOwnTheirSlots(t *testing.T) {
	req, vars, ref := lazyRequest(t)
	meta := metaOnly(vars)
	const sessions = 4
	fts := make([]*fakeTransport, sessions)
	var wg sync.WaitGroup
	for i := range fts {
		fts[i] = &fakeTransport{src: vars, failAfter: -1}
		wg.Add(1)
		go func(ft *fakeTransport) {
			defer wg.Done()
			rt, err := NewLazyRetriever(meta, Config{}, nil, ft.fetch, nil)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := rt.Retrieve(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Data, ref.Data) {
				t.Error("lazy session differs from a resident session")
			}
		}(fts[i])
	}
	wg.Wait()
	want := fts[0].requested()
	if len(want) == 0 {
		t.Fatal("session fetched nothing")
	}
	for i, ft := range fts {
		got := ft.requested()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %d fetched %d fragments, session 0 fetched %d: slots leaked between sessions", i, len(got), len(want))
		}
		for id, n := range got {
			if n != 1 {
				t.Fatalf("session %d requested fragment %v %d times", i, id, n)
			}
		}
	}
	for _, v := range meta {
		for fi, f := range v.Ref.Fragments {
			if len(f) != 0 {
				t.Fatalf("session payload leaked into shared metadata slot %s/%d", v.Name, fi)
			}
		}
	}
}
