package progressive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"progqoi/internal/datagen"
	"progqoi/internal/encoding"
	"progqoi/internal/grid"
)

var allMethods = []Method{PSZ3, PSZ3Delta, PMGARD, PMGARDHB}

func smoothField(dims []int) []float64 {
	g := grid.MustNew(dims...)
	out := make([]float64, g.Size())
	for off := range out {
		c := g.Coords(off)
		v := 0.0
		for d, x := range c {
			v += math.Sin(2*math.Pi*float64(x)/float64(g.Dim(d))+0.7*float64(d)) * 50 * float64(d+1)
		}
		out[off] = v
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestRefactorAndFullRetrieveAllMethods(t *testing.T) {
	dims := []int{257}
	data := smoothField(dims)
	for _, m := range allMethods {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rd, err := NewReader(ref, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		bound, err := rd.Advance(context.Background(), 0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := rd.Data()
		if err != nil {
			t.Fatal(err)
		}
		actual := maxAbsDiff(data, got)
		if actual > bound {
			t.Errorf("%v: actual error %g exceeds bound %g", m, actual, bound)
		}
		// Full retrieval should be near-exact.
		if actual > 1e-10*200 {
			t.Errorf("%v: full retrieval error %g too large", m, actual)
		}
	}
}

// TestExhaustedBoundMatchesLastPrefixBound pins that a PMGARD reader which
// has ingested every fragment reports, bit for bit, the bound the
// refactorer recorded for the whole prefix: both sum the same per-group
// bounds and slack through mgard's ErrorBound.
func TestExhaustedBoundMatchesLastPrefixBound(t *testing.T) {
	for _, ds := range []*datagen.Dataset{
		datagen.GE("GE", 2, 64, 1),
		datagen.NYX(12, 12, 12, 2),
		datagen.S3D(8, 12, 10, 3),
		datagen.Hurricane(6, 12, 12, 4),
	} {
		for _, m := range []Method{PMGARD, PMGARDHB} {
			for v, data := range ds.Fields {
				ref, err := Refactor(data, ds.Dims, Options{Method: m})
				if err != nil {
					t.Fatalf("%s %s %v: %v", ds.Name, ds.FieldNames[v], m, err)
				}
				rd, err := NewReader(ref, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rd.Advance(context.Background(), 0)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.PrefixBounds[len(ref.PrefixBounds)-1]
				if !rd.Exhausted() || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s %v: exhausted reader bound %v, last prefix bound %v",
						ds.Name, ds.FieldNames[v], m, got, want)
				}
			}
		}
	}
}

func TestProgressiveBoundsAlwaysHold(t *testing.T) {
	dims := []int{33, 17}
	data := smoothField(dims)
	targets := []float64{10, 1, 1e-2, 1e-4, 1e-6, 1e-9}
	for _, m := range allMethods {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rd, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		prevBytes := int64(0)
		for _, tgt := range targets {
			bound, err := rd.Advance(context.Background(), tgt)
			if err != nil {
				t.Fatalf("%v target %g: %v", m, tgt, err)
			}
			if bound > tgt {
				t.Errorf("%v: bound %g did not reach target %g", m, bound, tgt)
			}
			got, err := rd.Data()
			if err != nil {
				t.Fatal(err)
			}
			if e := maxAbsDiff(data, got); e > bound {
				t.Errorf("%v target %g: actual %g > bound %g", m, tgt, e, bound)
			}
			if rd.RetrievedBytes() < prevBytes {
				t.Errorf("%v: retrieved bytes decreased", m)
			}
			prevBytes = rd.RetrievedBytes()
		}
	}
}

func TestMonotoneBoundsWithinRepresentation(t *testing.T) {
	dims := []int{129}
	data := smoothField(dims)
	for _, m := range allMethods {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ref.PrefixBounds); i++ {
			if ref.PrefixBounds[i] > ref.PrefixBounds[i-1] {
				t.Errorf("%v: PrefixBounds not monotone at %d: %g > %g",
					m, i, ref.PrefixBounds[i], ref.PrefixBounds[i-1])
			}
		}
	}
}

func TestDeltaCheaperThanPSZ3OnProgressiveSession(t *testing.T) {
	// The Fig. 2 effect: a session requesting successively tighter bounds
	// costs much more with independent snapshots than with residuals.
	dims := []int{65, 65}
	data := smoothField(dims)
	session := func(m Method) int64 {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		rd, _ := NewReader(ref, nil)
		for i := 1; i <= 8; i++ {
			if _, err := rd.Advance(context.Background(), 300*math.Pow(10, -float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		return rd.RetrievedBytes()
	}
	psz3 := session(PSZ3)
	delta := session(PSZ3Delta)
	if delta >= psz3 {
		t.Errorf("delta session (%d B) should beat PSZ3 session (%d B)", delta, psz3)
	}
}

func TestHBTighterThanOB(t *testing.T) {
	// The Fig. 3 effect: for the same requested bound, HB retrieves fewer
	// bytes because its estimate is tighter.
	dims := []int{129, 65}
	data := smoothField(dims)
	cost := func(m Method) int64 {
		ref, err := Refactor(data, dims, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		rd, _ := NewReader(ref, nil)
		if _, err := rd.Advance(context.Background(), 1e-4); err != nil {
			t.Fatal(err)
		}
		return rd.RetrievedBytes()
	}
	ob := cost(PMGARD)
	hb := cost(PMGARDHB)
	if hb >= ob {
		t.Errorf("HB bytes (%d) should be below OB bytes (%d)", hb, ob)
	}
}

func TestFetchCallbackAccounting(t *testing.T) {
	dims := []int{100}
	data := smoothField(dims)
	ref, err := Refactor(data, dims, Options{Method: PMGARDHB})
	if err != nil {
		t.Fatal(err)
	}
	var cbBytes int64
	var calls int
	rd, err := NewReader(ref, func(i int, size int64) {
		cbBytes += size
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Advance(context.Background(), 1e-3); err != nil {
		t.Fatal(err)
	}
	if cbBytes != rd.RetrievedBytes() {
		t.Fatalf("callback saw %d bytes, reader counted %d", cbBytes, rd.RetrievedBytes())
	}
	if calls == 0 {
		t.Fatal("no fetch callbacks")
	}
}

func TestAdvanceIdempotentAndMonotone(t *testing.T) {
	dims := []int{64}
	data := smoothField(dims)
	ref, _ := Refactor(data, dims, Options{Method: PMGARDHB})
	rd, _ := NewReader(ref, nil)
	b1, err := rd.Advance(context.Background(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	bytes1 := rd.RetrievedBytes()
	// Re-requesting the same or a looser bound must be free.
	b2, err := rd.Advance(context.Background(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := rd.Advance(context.Background(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rd.RetrievedBytes() != bytes1 || b1 != b2 || b2 != b3 {
		t.Fatal("repeat/looser requests should be no-ops")
	}
}

// TestReachMatchesAdvance sweeps a session's target down through every
// method's representation: Reach, asked first, names the bound Advance
// then ends on, unless the plan exhausts the reader, where Advance may
// end lower but never higher. A looser target reaches the current bound.
func TestReachMatchesAdvance(t *testing.T) {
	dims := []int{33, 17}
	data := smoothField(dims)
	for _, m := range allMethods {
		for _, tail := range []bool{false, true} {
			ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: tail})
			if err != nil {
				t.Fatal(err)
			}
			rd, err := NewReader(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			for target := 300.0; target > 1e-14; target /= 3 {
				plan := rd.Plan(target)
				exhausts := len(plan) > 0 && plan[len(plan)-1] == len(ref.Fragments)-1
				reach := rd.Reach(target)
				got, err := rd.Advance(context.Background(), target)
				if err != nil {
					t.Fatal(err)
				}
				if got != reach && !(exhausts && got < reach) {
					t.Fatalf("%s tail=%v target %g: Reach %g, Advance ended on %g (exhausts %v)", m, tail, target, reach, got, exhausts)
				}
				if r := rd.Reach(10 * target); r != rd.Bound() {
					t.Fatalf("%s tail=%v: looser target reaches %g, bound is %g", m, tail, r, rd.Bound())
				}
			}
			if !rd.Exhausted() {
				t.Fatalf("%s tail=%v: the sweep never exhausted the reader", m, tail)
			}
		}
	}
}

func TestAdvanceRejectsBadTarget(t *testing.T) {
	dims := []int{16}
	ref, _ := Refactor(smoothField(dims), dims, Options{Method: PMGARDHB})
	rd, _ := NewReader(ref, nil)
	if _, err := rd.Advance(context.Background(), -1); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := rd.Advance(context.Background(), math.NaN()); err == nil {
		t.Fatal("NaN target accepted")
	}
}

func TestRefactorValidations(t *testing.T) {
	if _, err := Refactor([]float64{1, 2}, []int{3}, Options{Method: PSZ3}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Refactor([]float64{1, 2}, []int{2}, Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Refactor([]float64{1, 2}, []int{2}, Options{Method: PSZ3, SnapshotEBs: []float64{1e-3, 1e-2}}); err == nil {
		t.Fatal("increasing snapshot bounds accepted")
	}
	if _, err := Refactor([]float64{1, 2}, []int{2}, Options{Method: PSZ3, SnapshotEBs: []float64{-1}}); err == nil {
		t.Fatal("negative snapshot bound accepted")
	}
}

func TestZeroFieldAllMethods(t *testing.T) {
	dims := []int{50}
	data := make([]float64, 50)
	for _, m := range allMethods {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rd, err := NewReader(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := rd.Advance(context.Background(), 1e-12)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if bound > 1e-12 {
			t.Errorf("%v: zero field bound %g", m, bound)
		}
		got, _ := rd.Data()
		for _, v := range got {
			if v != 0 {
				t.Errorf("%v: zero field decoded nonzero", m)
				break
			}
		}
	}
}

func TestMarshalRoundTripAllMethods(t *testing.T) {
	dims := []int{33, 9}
	data := smoothField(dims)
	for _, m := range allMethods {
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			t.Fatal(err)
		}
		buf := ref.Marshal()
		ref2, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		rd1, _ := NewReader(ref, nil)
		rd2, err := NewReader(ref2, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		b1, err := rd1.Advance(context.Background(), 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := rd2.Advance(context.Background(), 1e-5)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if b1 != b2 || rd1.RetrievedBytes() != rd2.RetrievedBytes() {
			t.Fatalf("%v: round-trip behaviour differs (%g/%g, %d/%d bytes)", m, b1, b2, rd1.RetrievedBytes(), rd2.RetrievedBytes())
		}
		d1, _ := rd1.Data()
		d2, _ := rd2.Data()
		if maxAbsDiff(d1, d2) != 0 {
			t.Fatalf("%v: round-trip data differs", m)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	dims := []int{20}
	ref, _ := Refactor(smoothField(dims), dims, Options{Method: PMGARDHB})
	buf := ref.Marshal()
	for _, cut := range []int{0, 3, 10, 40, len(buf) / 2, len(buf) - 1} {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 0x77 // method field garbage
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad method not detected")
	}
}

// forgedHeader frames the u32 words as a refactored header section with
// no fragment count after it.
func forgedHeader(words ...uint32) []byte {
	hdr := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(hdr[4*i:], w)
	}
	return encoding.PutSection(nil, hdr)
}

// TestUnmarshalForgedHeaders feeds representations Marshal never writes:
// counts that promise far more entries than their bytes hold, grids with
// a zero or overflowing size, a tail flag other than 0 or 1, and bytes
// after the header's last field or after the last fragment. Each must be
// refused as corrupt before Unmarshal allocates for a count (a 2²⁴
// prefix-bound count alone once cost 128 MiB), so whatever Unmarshal
// accepts, Marshal writes back unchanged.
func TestUnmarshalForgedHeaders(t *testing.T) {
	noFrags := []byte{0, 0, 0, 0}
	// method 3, rank 1, dim 8, then nbounds, nsnap, tail, basis, planes,
	// nsched and nblocks all 0.
	empty := append(forgedHeader(3, 1, 8, 0, 0, 0, 0, 0, 0, 0), noFrags...)
	ref, err := Unmarshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Marshal(), empty) {
		t.Fatal("an empty PMGARD-HB representation does not round-trip")
	}
	cases := map[string][]byte{
		"prefix bounds":            forgedHeader(3, 1, 8, 1<<24), // the 20-byte header
		"schedule":                 forgedHeader(3, 1, 8, 0, 0, 0, 0, 0, 1<<24),
		"blocks":                   forgedHeader(3, 1, 8, 0, 0, 0, 0, 0, 0, 1<<16),
		"fragments":                append(forgedHeader(3, 1, 8, 0, 0, 0, 0, 0, 0, 0), 0, 0, 0, 1),
		"zero dim":                 append(forgedHeader(3, 2, 8, 0, 0, 0, 0, 0, 0, 0, 0), noFrags...),
		"dims overflow":            append(forgedHeader(3, 3, math.MaxUint32, math.MaxUint32, math.MaxUint32, 0, 0, 0, 0, 0, 0, 0), noFrags...),
		"tail flag 2":              append(forgedHeader(3, 1, 8, 0, 0, 2, 0, 0, 0, 0), noFrags...),
		"trailing header word":     append(forgedHeader(3, 1, 8, 0, 0, 0, 0, 0, 0, 0, 7), noFrags...),
		"byte after the fragments": append(append([]byte(nil), empty...), 0),
	}
	for name, buf := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(buf)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, d)
		}
	}
}

func TestLevelMajorOrderStillSound(t *testing.T) {
	dims := []int{65}
	data := smoothField(dims)
	ref, err := Refactor(data, dims, Options{Method: PMGARDHB, Order: LevelMajorOrder})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := NewReader(ref, nil)
	bound, err := rd.Advance(context.Background(), 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rd.Data()
	if e := maxAbsDiff(data, got); e > bound || bound > 1e-5 {
		t.Fatalf("level-major: actual %g bound %g", e, bound)
	}
}

func TestGreedyBeatsLevelMajorAtLooseTargets(t *testing.T) {
	dims := []int{129, 33}
	data := smoothField(dims)
	cost := func(o Order) int64 {
		ref, err := Refactor(data, dims, Options{Method: PMGARDHB, Order: o})
		if err != nil {
			t.Fatal(err)
		}
		rd, _ := NewReader(ref, nil)
		if _, err := rd.Advance(context.Background(), 1.0); err != nil {
			t.Fatal(err)
		}
		return rd.RetrievedBytes()
	}
	if g, lm := cost(GreedyOrder), cost(LevelMajorOrder); g > lm {
		t.Errorf("greedy (%d B) should not exceed level-major (%d B) at loose targets", g, lm)
	}
}

func TestPropertyAllMethodsBoundSound(t *testing.T) {
	shapes := [][]int{{31}, {12, 11}, {5, 6, 7}}
	f := func(seed int64, msel, ssel uint8, tExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := shapes[int(ssel)%len(shapes)]
		g := grid.MustNew(dims...)
		data := make([]float64, g.Size())
		for i := range data {
			data[i] = rng.NormFloat64() * 10
		}
		m := allMethods[int(msel)%len(allMethods)]
		ref, err := Refactor(data, dims, Options{Method: m, LosslessTail: true})
		if err != nil {
			return false
		}
		rd, err := NewReader(ref, nil)
		if err != nil {
			return false
		}
		target := math.Pow(10, -float64(tExp%10))
		bound, err := rd.Advance(context.Background(), target)
		if err != nil {
			return false
		}
		got, err := rd.Data()
		if err != nil {
			return false
		}
		return maxAbsDiff(data, got) <= bound && bound <= target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMetadataBytesAccounting pins Marshal's layout: one metadata section,
// the fragment count, then every fragment as a section of its own, so the
// metadata a session pays for before any fragment is the first section.
func TestMetadataBytesAccounting(t *testing.T) {
	dims := []int{200}
	ref, err := Refactor(smoothField(dims), dims, Options{Method: PMGARDHB})
	if err != nil {
		t.Fatal(err)
	}
	buf := ref.Marshal()
	hdr, meta, err := encoding.GetSection(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr) == 0 {
		t.Fatal("empty metadata section")
	}
	rest := buf[meta:]
	if got := binary.LittleEndian.Uint32(rest); int(got) != len(ref.Fragments) {
		t.Fatalf("fragment count %d, want %d", got, len(ref.Fragments))
	}
	rest = rest[4:]
	for i, f := range ref.Fragments {
		sec, n, err := encoding.GetSection(rest)
		if err != nil || !bytes.Equal(sec, f) {
			t.Fatalf("fragment %d not framed in place (%v)", i, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// Metadata + framed fragments + count must equal the marshalled size.
	if int64(meta)+ref.TotalBytes()+4*int64(len(ref.Fragments))+4 != int64(len(buf)) {
		t.Fatalf("accounting mismatch: meta %d + frags %d != total %d", meta, ref.TotalBytes(), len(buf))
	}
}

func TestPSZ3SkipsLooseSnapshots(t *testing.T) {
	// A first request at a tight bound must fetch exactly one snapshot —
	// the matching one — not the looser prefix.
	dims := []int{300}
	data := smoothField(dims)
	ref, err := Refactor(data, dims, Options{Method: PSZ3, LosslessTail: true})
	if err != nil {
		t.Fatal(err)
	}
	var fetched []int
	rd, _ := NewReader(ref, func(i int, size int64) { fetched = append(fetched, i) })
	rng := 0.0
	for _, v := range data {
		if v > rng {
			rng = v
		}
	}
	if _, err := rd.Advance(context.Background(), ref.SnapshotEBs[5]); err != nil {
		t.Fatal(err)
	}
	if len(fetched) != 1 || fetched[0] != 5 {
		t.Fatalf("expected single fetch of snapshot 5, got %v", fetched)
	}
}

func TestDeltaFetchesPrefix(t *testing.T) {
	dims := []int{300}
	ref, err := Refactor(smoothField(dims), dims, Options{Method: PSZ3Delta, LosslessTail: true})
	if err != nil {
		t.Fatal(err)
	}
	var fetched []int
	rd, _ := NewReader(ref, func(i int, size int64) { fetched = append(fetched, i) })
	if _, err := rd.Advance(context.Background(), ref.SnapshotEBs[3]); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(fetched) != len(want) {
		t.Fatalf("fetched %v, want %v", fetched, want)
	}
	for i := range want {
		if fetched[i] != want[i] {
			t.Fatalf("fetched %v, want %v", fetched, want)
		}
	}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{PSZ3: "PSZ3", PSZ3Delta: "PSZ3-delta", PMGARD: "PMGARD", PMGARDHB: "PMGARD-HB"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}
