package progressive

// parallel_test.go proves the staged decode path: for every method the
// Reader must produce bit-identical reconstructions, equal bounds, and equal
// byte accounting at every worker count — including across cancellation
// mid-pool, where the committed prefix must leave the reader resumable, and
// with several readers advancing at once over one shared Refactored.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progqoi/internal/bitplane"
	"progqoi/internal/encoding"
)

// advanceLadder drives rd through a tightening target ladder, returning the
// final (bound, retrieved, data-bits) state.
func advanceLadder(t *testing.T, rd *Reader, targets []float64) (float64, int64, []uint64) {
	t.Helper()
	var bound float64
	for _, tg := range targets {
		var err error
		bound, err = rd.Advance(context.Background(), tg)
		if err != nil {
			t.Fatalf("advance to %g: %v", tg, err)
		}
	}
	data, err := rd.Data()
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, len(data))
	for i, v := range data {
		bits[i] = math.Float64bits(v)
	}
	return bound, rd.RetrievedBytes(), bits
}

func TestAdvanceParallelMatchesSequential(t *testing.T) {
	dims := []int{37, 41}
	field := smoothField(dims)
	for _, m := range allMethods {
		ref, err := Refactor(field, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		targets := []float64{1e-1, 1e-3, 1e-6, 0}
		seq, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq.SetWorkers(1)
		wantBound, wantBytes, wantBits := advanceLadder(t, seq, targets)
		for _, workers := range []int{2, 3, 8, 64} {
			rd, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			rd.SetWorkers(workers)
			if rd.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", rd.Workers(), workers)
			}
			bound, bytes, bits := advanceLadder(t, rd, targets)
			if bound != wantBound {
				t.Fatalf("%v workers=%d: bound %g, want %g", m, workers, bound, wantBound)
			}
			if bytes != wantBytes {
				t.Fatalf("%v workers=%d: retrieved %d, want %d", m, workers, bytes, wantBytes)
			}
			for j := range bits {
				if bits[j] != wantBits[j] {
					t.Fatalf("%v workers=%d: point %d differs: %x vs %x", m, workers, j, bits[j], wantBits[j])
				}
			}
		}
	}
}

// TestAdvanceParallelObserverOrder checks the fetch observer still sees
// every fragment exactly once, in plan order, under the parallel path.
func TestAdvanceParallelObserverOrder(t *testing.T) {
	dims := []int{29, 31}
	field := smoothField(dims)
	for _, m := range []Method{PMGARDHB, PSZ3Delta} {
		ref, err := Refactor(field, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		rd, err := NewReader(ref, func(i int, size int64) {
			got = append(got, i)
			if size != int64(len(ref.Fragments[i])) {
				t.Fatalf("fragment %d observed size %d, want %d", i, size, len(ref.Fragments[i]))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		rd.SetWorkers(8)
		if _, err := rd.Advance(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		for k, i := range got {
			if i != k {
				t.Fatalf("%v: observer saw fragment %d at position %d", m, i, k)
			}
		}
		if len(got) != len(ref.Fragments) {
			t.Fatalf("%v: observer saw %d fragments, want %d", m, len(got), len(ref.Fragments))
		}
	}
}

// countdownCtx reports cancellation after its Err method has been consulted
// n times — a deterministic way to cancel mid-pool.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func TestAdvanceParallelCancelMidPoolResumes(t *testing.T) {
	dims := []int{33, 35}
	field := smoothField(dims)
	for _, m := range []Method{PMGARDHB, PSZ3Delta} {
		ref, err := Refactor(field, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq.SetWorkers(1)
		wantBound, wantBytes, wantBits := advanceLadder(t, seq, []float64{0})

		rd, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		rd.SetWorkers(4)
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(3) // cancel after a few pool tasks
		bound, err := rd.Advance(ctx, 0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: cancelled advance returned %v", m, err)
		}
		if math.IsNaN(bound) || bound < wantBound {
			t.Fatalf("%v: bound after cancel %g below final %g", m, bound, wantBound)
		}
		if rd.RetrievedBytes() > wantBytes {
			t.Fatalf("%v: cancelled advance accounted %d bytes > total %d", m, rd.RetrievedBytes(), wantBytes)
		}
		// The committed prefix must leave the reader resumable: finishing the
		// retrieval yields the exact sequential end state with no double
		// accounting.
		bound, werr := rd.Advance(context.Background(), 0)
		if werr != nil {
			t.Fatalf("%v: resume: %v", m, werr)
		}
		if bound != wantBound {
			t.Fatalf("%v: resumed bound %g, want %g", m, bound, wantBound)
		}
		if rd.RetrievedBytes() != wantBytes {
			t.Fatalf("%v: resumed retrieved %d, want %d", m, rd.RetrievedBytes(), wantBytes)
		}
		data, err := rd.Data()
		if err != nil {
			t.Fatal(err)
		}
		for j := range data {
			if math.Float64bits(data[j]) != wantBits[j] {
				t.Fatalf("%v: resumed point %d differs", m, j)
			}
		}
	}
}

func TestIngestShortFragmentTypedError(t *testing.T) {
	dims := []int{21, 23}
	field := smoothField(dims)
	for _, workers := range []int{1, 4} {
		// An emptied fragment payload (the remote layer failed to install it)
		// must surface as ErrShortFragment, not a panic.
		ref, err := Refactor(field, dims, Options{Method: PMGARDHB})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		rd.SetWorkers(workers)
		saved := ref.Fragments[2]
		ref.Fragments[2] = nil
		if _, err := rd.Advance(context.Background(), 0); !errors.Is(err, ErrShortFragment) {
			t.Fatalf("workers=%d: empty fragment returned %v, want ErrShortFragment", workers, err)
		}
		// The two committed fragments stay ingested; restoring the payload
		// resumes cleanly.
		if rd.RetrievedBytes() != int64(len(ref.Fragments[0])+len(ref.Fragments[1])) {
			t.Fatalf("workers=%d: committed prefix accounted %d bytes", workers, rd.RetrievedBytes())
		}
		ref.Fragments[2] = saved
		if _, err := rd.Advance(context.Background(), 0); err != nil {
			t.Fatalf("workers=%d: resume after repair: %v", workers, err)
		}

		// A cursor raced past the representation must bounds-check, not
		// panic, and a plan over truncated metadata must clamp.
		ref2, err := Refactor(field, dims, Options{Method: PMGARDHB})
		if err != nil {
			t.Fatal(err)
		}
		rd2, err := NewReader(ref2, nil)
		if err != nil {
			t.Fatal(err)
		}
		rd2.SetWorkers(workers)
		if _, err := rd2.fragment(len(ref2.Fragments)); !errors.Is(err, ErrShortFragment) {
			t.Fatalf("workers=%d: out-of-range fragment returned %v, want ErrShortFragment", workers, err)
		}
		if _, err := rd2.fragment(-1); !errors.Is(err, ErrShortFragment) {
			t.Fatalf("workers=%d: negative fragment returned %v, want ErrShortFragment", workers, err)
		}
		ref2.PrefixBounds = ref2.PrefixBounds[:1] // metadata shorter than fragments
		if plan := rd2.Plan(0); len(plan) > 1 {
			t.Fatalf("workers=%d: plan over truncated metadata wants %d fragments", workers, len(plan))
		}
		if _, err := rd2.Advance(context.Background(), 0); err != nil {
			t.Fatalf("workers=%d: clamped advance: %v", workers, err)
		}

		// A corrupt schedule that skips a plane must fail typed, not decode
		// garbage.
		ref3, err := Refactor(field, dims, Options{Method: PMGARDHB})
		if err != nil {
			t.Fatal(err)
		}
		rd3, err := NewReader(ref3, nil)
		if err != nil {
			t.Fatal(err)
		}
		rd3.SetWorkers(workers)
		g := ref3.Schedule[1].Group
		for i := 2; i < len(ref3.Schedule); i++ {
			if ref3.Schedule[i].Group == g {
				ref3.Schedule[1] = ref3.Schedule[i] // duplicate a later plane of the same group
				break
			}
		}
		if _, err := rd3.Advance(context.Background(), 0); !errors.Is(err, ErrShortFragment) {
			t.Fatalf("workers=%d: skipped plane returned %v, want ErrShortFragment", workers, err)
		}
	}
}

// TestConcurrentReadersShareRefactored: readers share their Refactored's
// blocks and fragments read-only, so several advancing at once to
// different targets, at different worker counts, each end bit-identical
// to a lone reader, and the Refactored is unchanged afterwards. Under
// -race a write to the shared metadata fails the test.
func TestConcurrentReadersShareRefactored(t *testing.T) {
	dims := []int{31, 27}
	field := smoothField(dims)
	targets := []float64{1e-1, 1e-3, 1e-6, 0}
	type state struct {
		bound float64
		bytes int64
		bits  []uint64
		err   error
	}
	run := func(rd *Reader, target float64) (s state) {
		if s.bound, s.err = rd.Advance(context.Background(), target); s.err != nil {
			return s
		}
		data, err := rd.Data()
		if err != nil {
			s.err = err
			return s
		}
		s.bytes = rd.RetrievedBytes()
		for _, v := range data {
			s.bits = append(s.bits, math.Float64bits(v))
		}
		return s
	}
	for _, m := range allMethods {
		ref, err := Refactor(field, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		blocks := append([]*bitplane.Block(nil), ref.Blocks...)
		metas := make([]bitplane.Block, len(ref.Blocks))
		for i, b := range ref.Blocks {
			metas[i] = *b
		}
		frags := make([][]byte, len(ref.Fragments))
		for i, f := range ref.Fragments {
			frags[i] = bytes.Clone(f)
		}

		want := make([]state, len(targets))
		for k, tg := range targets {
			rd, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			rd.SetWorkers(1)
			if want[k] = run(rd, tg); want[k].err != nil {
				t.Fatalf("%v: lone reader to %g: %v", m, tg, want[k].err)
			}
		}

		workers := []int{1, 3}
		readers := make([]*Reader, len(targets)*len(workers))
		for i := range readers {
			if readers[i], err = NewReader(ref, nil); err != nil {
				t.Fatal(err)
			}
			readers[i].SetWorkers(workers[i%len(workers)])
		}
		got := make([]state, len(readers))
		var wg sync.WaitGroup
		for i, rd := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run(rd, targets[i/len(workers)])
			}()
		}
		wg.Wait()
		for i, g := range got {
			w := want[i/len(workers)]
			name := fmt.Sprintf("%v reader %d (target %g, workers %d)", m, i, targets[i/len(workers)], workers[i%len(workers)])
			if g.err != nil {
				t.Fatalf("%s: %v", name, g.err)
			}
			if g.bound != w.bound || g.bytes != w.bytes || !slices.Equal(g.bits, w.bits) {
				t.Fatalf("%s: bound %g, %d bytes; a lone reader gets %g, %d bytes (data equal: %v)",
					name, g.bound, g.bytes, w.bound, w.bytes, slices.Equal(g.bits, w.bits))
			}
		}

		if !slices.Equal(ref.Blocks, blocks) {
			t.Fatalf("%v: readers replaced blocks of the Refactored", m)
		}
		for i, b := range ref.Blocks {
			if !reflect.DeepEqual(*b, metas[i]) {
				t.Fatalf("%v: block %d changed: %+v, was %+v", m, i, *b, metas[i])
			}
		}
		if len(ref.Fragments) != len(frags) {
			t.Fatalf("%v: fragment count changed", m)
		}
		for i, f := range ref.Fragments {
			if !bytes.Equal(f, frags[i]) {
				t.Fatalf("%v: fragment %d changed", m, i)
			}
		}
	}
}

// TestAdvanceCorruptFragmentCommitsPrefix: a fragment that fails to decode
// fails the Advance with the planned fragments before it committed —
// bytes, bound and cursor — at every worker count, and once the fragment
// is repaired the reader resumes to a lone clean reader's exact state.
func TestAdvanceCorruptFragmentCommitsPrefix(t *testing.T) {
	dims := []int{29, 31}
	field := smoothField(dims)
	other, err := Refactor(smoothField([]int{31, 29}), []int{31, 29}, Options{Method: PSZ3Delta})
	if err != nil {
		t.Fatal(err)
	}
	section := func(b []byte) []byte { return encoding.PutSection(nil, b) }
	badTag := section([]byte{99, 1, 2})
	// signsEnd is where fragment 0's sign section ends: the first fragment
	// of a PMGARD representation is always some group's plane 0.
	signsEnd := func(r *Refactored) int {
		_, n, err := encoding.GetSection(r.Fragments[0])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	firstUpperPlane := func(r *Refactored) int {
		for i, s := range r.Schedule {
			if s.Plane > 0 {
				return i
			}
		}
		t.Fatal("no fragment above plane 0")
		return -1
	}
	for _, tc := range []struct {
		name    string
		method  Method
		corrupt func(r *Refactored) int // breaks one fragment, returns its index
	}{
		{"truncated sign section", PMGARDHB, func(r *Refactored) int {
			r.Fragments[0] = r.Fragments[0][:2]
			return 0
		}},
		{"bad sign bitmap", PMGARDHB, func(r *Refactored) int {
			r.Fragments[0] = append(slices.Clone(badTag), r.Fragments[0][signsEnd(r):]...)
			return 0
		}},
		{"missing plane section", PMGARD, func(r *Refactored) int {
			r.Fragments[0] = r.Fragments[0][:signsEnd(r)]
			return 0
		}},
		{"bad plane-0 bitmap", PMGARDHB, func(r *Refactored) int {
			r.Fragments[0] = append(slices.Clone(r.Fragments[0][:signsEnd(r)]), badTag...)
			return 0
		}},
		{"bad upper plane bitmap", PMGARDHB, func(r *Refactored) int {
			i := firstUpperPlane(r)
			r.Fragments[i] = badTag
			return i
		}},
		{"no schedule entry", PMGARDHB, func(r *Refactored) int {
			r.Schedule = r.Schedule[:3]
			return 3
		}},
		{"plane past the block", PMGARDHB, func(r *Refactored) int {
			r.Schedule[3].Plane = r.Blocks[r.Schedule[3].Group].B
			return 3
		}},
		{"garbage residual", PSZ3Delta, func(r *Refactored) int {
			r.Fragments[1] = []byte{1, 2, 3}
			return 1
		}},
		{"residual of another grid", PSZ3Delta, func(r *Refactored) int {
			r.Fragments[2] = other.Fragments[2]
			return 2
		}},
		{"garbage lossless tail", PSZ3, func(r *Refactored) int {
			i := len(r.Fragments) - 1
			r.Fragments[i] = []byte{1, 2, 3}
			return i
		}},
	} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s, workers %d", tc.name, workers)
			ref, err := Refactor(field, dims, Options{Method: tc.method, LosslessTail: true})
			if err != nil {
				t.Fatal(err)
			}
			lone, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantBound, wantBytes, wantBits := advanceLadder(t, lone, []float64{0})

			frags, sched := slices.Clone(ref.Fragments), slices.Clone(ref.Schedule)
			bad := tc.corrupt(ref)
			rd, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			rd.SetWorkers(workers)
			bound0 := rd.Bound()
			var committed int64
			plan := rd.Plan(0)
			for _, i := range plan[:slices.Index(plan, bad)] {
				committed += int64(len(frags[i]))
				bound0 = ref.PrefixBounds[i]
			}
			if _, err := rd.Advance(context.Background(), 0); err == nil {
				t.Fatalf("%s: corrupt fragment %d decoded", name, bad)
			} else if tc.name == "residual of another grid" && !errors.Is(err, encoding.ErrCorrupt) {
				t.Fatalf("%s: %v, want ErrCorrupt", name, err)
			}
			if rd.RetrievedBytes() != committed || rd.Bound() != bound0 {
				t.Fatalf("%s: after the failure %d bytes and bound %g, want the prefix's %d and %g",
					name, rd.RetrievedBytes(), rd.Bound(), committed, bound0)
			}

			ref.Fragments, ref.Schedule = frags, sched
			bound, bytes, bits := advanceLadder(t, rd, []float64{0})
			if bound != wantBound || bytes != wantBytes || !slices.Equal(bits, wantBits) {
				t.Fatalf("%s: resumed to bound %g, %d bytes; a clean reader gets %g, %d bytes (data equal: %v)",
					name, bound, bytes, wantBound, wantBytes, slices.Equal(bits, wantBits))
			}
		}
	}
}
