package encoding

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// freshDeflate is Deflate as it was before pooling: one flate.NewWriter per
// call. It is the reference the pooled path must match byte for byte.
func freshDeflate(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// deflateInputs mixes what fragments look like: empty, tiny, all-zero,
// repetitive text and incompressible noise, at sizes around a 4 KiB plane.
func deflateInputs() [][]byte {
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 5000)
	rng.Read(noise)
	sparse := make([]byte, 4096)
	for i := 0; i < 40; i++ {
		sparse[rng.Intn(len(sparse))] = byte(1 << rng.Intn(8))
	}
	return [][]byte{
		{}, {7}, make([]byte, 4096), sparse, noise,
		bytes.Repeat([]byte("progressive retrieval "), 300),
	}
}

// TestDeflatePooledMatchesFresh: 8 goroutines share the compressor pools at
// mixed levels; every result must equal a fresh flate.NewWriter's, i.e. a
// Reset writer carries nothing over from its previous stream. Run it under
// -race.
func TestDeflatePooledMatchesFresh(t *testing.T) {
	inputs := deflateInputs()
	levels := []int{flate.HuffmanOnly, flate.DefaultCompression, flate.BestSpeed, 6, flate.BestCompression}
	want := map[[2]int][]byte{}
	for li, lvl := range levels {
		for ii, in := range inputs {
			want[[2]int{li, ii}] = freshDeflate(t, in, lvl)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 60; k++ {
				li, ii := rng.Intn(len(levels)), rng.Intn(len(inputs))
				got, err := Deflate(inputs[ii], levels[li])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[[2]int{li, ii}]) {
					t.Errorf("goroutine %d: level %d input %d differs from a fresh writer", g, levels[li], ii)
					return
				}
				back, err := Inflate(got, int64(len(inputs[ii])))
				if err != nil || !bytes.Equal(back, inputs[ii]) {
					t.Errorf("goroutine %d: level %d input %d does not round-trip: %v", g, levels[li], ii, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDeflateBadLevel: a level flate rejects is still flate's error, not an
// out-of-range pool index.
func TestDeflateBadLevel(t *testing.T) {
	for _, lvl := range []int{-3, 10, 1 << 20, -1 << 20} {
		_, want := flate.NewWriter(nil, lvl)
		if _, err := Deflate([]byte("x"), lvl); err == nil || err.Error() != want.Error() {
			t.Errorf("level %d: got %v, want %v", lvl, err, want)
		}
	}
}

// TestDeflateSteadyStateAllocs: once a compressor is pooled, a Deflate call
// allocates its result and nothing like the ≈ 20 objects / 0.8 MB of a new
// flate.Writer. GC is off so the pool is not drained mid-measurement.
func TestDeflateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	data := deflateInputs()[3][:4096]
	run := func() {
		if _, err := Deflate(data, 6); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the pool
	if n := testing.AllocsPerRun(200, run); n > 2 {
		t.Fatalf("Deflate allocates %v objects per call in steady state, want ≤ 2", n)
	}
	frag, err := PutTagged(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := GetTagged(frag, len(data)); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("GetTagged allocates %v objects per call in steady state, want ≤ 2", n)
	}
}

// TestTaggedRule pins the fragment framing: tag 1 + DEFLATE(level 6) when
// that is strictly smaller than the raw bytes, else tag 0 + the raw bytes.
func TestTaggedRule(t *testing.T) {
	for i, raw := range deflateInputs() {
		frag, err := PutTagged(raw)
		if err != nil {
			t.Fatal(err)
		}
		c := freshDeflate(t, raw, 6)
		want := append([]byte{0}, raw...)
		if len(c) < len(raw) {
			want = append([]byte{1}, c...)
		}
		if !bytes.Equal(frag, want) {
			t.Fatalf("input %d: fragment is not tag+payload under the len(deflate) < len(raw) rule", i)
		}
		got, err := GetTagged(frag, len(raw))
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("input %d: round trip: %v", i, err)
		}
		if frag[0] == 0 && len(raw) > 0 && &got[0] != &frag[1] {
			t.Fatalf("input %d: a raw payload should alias the fragment", i)
		}
		if frag[0] == 1 && cap(got) != len(raw) {
			t.Fatalf("input %d: inflated into cap %d, want one buffer of %d", i, cap(got), len(raw))
		}
	}
}

// TestGetTaggedIntoReusesScratch: GetTaggedInto inflates a DEFLATE payload
// into the scratch it is given once that holds the payload, grows a scratch
// that is too small, and leaves the scratch alone for a raw payload, which
// aliases the fragment as GetTagged's does.
func TestGetTaggedIntoReusesScratch(t *testing.T) {
	var deflated, raw [][]byte
	var frags [][]byte
	for _, in := range deflateInputs() {
		frag, err := PutTagged(in)
		if err != nil {
			t.Fatal(err)
		}
		if frag[0] == 1 {
			deflated, frags = append(deflated, in), append(frags, frag)
		} else if len(in) > 0 {
			raw = append(raw, in)
		}
	}
	if len(deflated) == 0 || len(raw) == 0 {
		t.Fatal("deflateInputs has no DEFLATE fragment or no non-empty raw one")
	}
	for i, in := range deflated {
		scratch := make([]byte, 1, len(in)/2+1)
		got, err := GetTaggedInto(frags[i], len(in), &scratch)
		if err != nil || !bytes.Equal(got, in) {
			t.Fatalf("input %d: grown scratch: %v", i, err)
		}
		if &scratch[0] != &got[0] || len(scratch) != len(in) {
			t.Fatalf("input %d: scratch does not hold the payload after growing", i)
		}
		kept := &scratch[0]
		got, err = GetTaggedInto(frags[i], len(in), &scratch)
		if err != nil || !bytes.Equal(got, in) {
			t.Fatalf("input %d: reused scratch: %v", i, err)
		}
		if &got[0] != kept || &scratch[0] != kept {
			t.Fatalf("input %d: a scratch that holds the payload was not reused", i)
		}
		frag, err := PutTagged(raw[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err = GetTaggedInto(frag, len(raw[0]), &scratch)
		if err != nil || &got[0] != &frag[1] {
			t.Fatalf("input %d: a raw payload should alias the fragment: %v", i, err)
		}
		if &scratch[0] != kept || len(scratch) != len(in) {
			t.Fatalf("input %d: a raw payload moved the scratch", i)
		}
	}
}

// TestAppendTaggedSections: the sections AppendTaggedSections appends are
// PutSection(PutTagged(raw)) for each input in turn, after whatever dst
// held, and dst grows once, to exactly their size.
func TestAppendTaggedSections(t *testing.T) {
	ins := deflateInputs()
	for i := range ins {
		raws := [][]byte{ins[i], ins[(i+1)%len(ins)]}
		want := []byte("head")
		size := 0
		for _, raw := range raws {
			frag, err := PutTagged(raw)
			if err != nil {
				t.Fatal(err)
			}
			want = PutSection(want, frag)
			size += 4 + len(frag)
		}
		got, err := AppendTaggedSections([]byte("head"), raws...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("inputs %d: sections differ from PutSection(PutTagged(raw))", i)
		}
		if cap(got) != len("head")+size {
			t.Fatalf("inputs %d: grew to cap %d, want exactly %d", i, cap(got), len("head")+size)
		}
		dst := make([]byte, 0, size)
		if got, _ := AppendTaggedSections(dst, raws...); &got[0] != &dst[:1][0] {
			t.Fatalf("inputs %d: grew a buffer that had room", i)
		}
	}
}

// TestGetTaggedCorrupt: every malformed fragment is ErrCorrupt, and a
// DEFLATE payload larger than the declared size is cut off at that size.
func TestGetTaggedCorrupt(t *testing.T) {
	zeros, err := PutTagged(make([]byte, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		frag []byte
		size int
	}{
		"empty":             {nil, 4},
		"unknown tag":       {[]byte{2, 0, 0, 0, 0}, 4},
		"raw too short":     {[]byte{0, 1, 2}, 4},
		"raw too long":      {[]byte{0, 1, 2, 3, 4, 5}, 4},
		"deflate garbage":   {[]byte{1, 0xde, 0xad, 0xbe, 0xef}, 4},
		"deflate truncated": {zeros[:len(zeros)/2], 1 << 16},
		"deflate too long":  {zeros, 100},
		"deflate too short": {zeros, 1<<16 + 1},
		"deflate, size 0":   {zeros, 0},
		"negative size":     {zeros, -1},
	}
	for name, c := range cases {
		if _, err := GetTagged(c.frag, c.size); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestInflateGrowsWithOutput: Inflate does not reserve its caller's limit up
// front — a small stream under a huge limit costs a small buffer.
func TestInflateGrowsWithOutput(t *testing.T) {
	c, err := Deflate([]byte("small"), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{0, 5, 1 << 40} {
		got, err := Inflate(c, limit)
		if err != nil || string(got) != "small" {
			t.Fatalf("limit %d: %q, %v", limit, got, err)
		}
		if cap(got) > 512 {
			t.Fatalf("limit %d: %d bytes reserved for a 5-byte result", limit, cap(got))
		}
	}
	if _, err := Inflate(c, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("limit 4: got %v, want ErrCorrupt", err)
	}
}

// periodicPlane is a 28 KiB plane made of one random 8 KiB block repeated:
// its byte histogram is as flat as noise, but every window recurs 8 KiB
// later, so level-6 DEFLATE shrinks it to about one block.
func periodicPlane() []byte {
	block := make([]byte, 8<<10)
	rand.New(rand.NewSource(8)).Read(block)
	plane := make([]byte, 0, 28<<10)
	for len(plane) < cap(plane) {
		plane = append(plane, block[:min(len(block), cap(plane)-len(plane))]...)
	}
	return plane
}

// TestTaggedPeriodicPlane: a plane whose histogram passes the χ² half of
// the predictor must still be stored as DEFLATE when DEFLATE shrinks it.
// A histogram-only rule would store it raw; the repeat probe keeps it.
func TestTaggedPeriodicPlane(t *testing.T) {
	raw := periodicPlane()
	var hist [256]uint64
	for _, c := range raw {
		hist[c]++
	}
	var sq uint64
	for _, c := range hist {
		sq += c * c
	}
	if n := uint64(len(raw)); 9216*sq > n*(37*n+9180) {
		t.Fatal("the histogram already rejects the plane; it no longer tests the repeat probe")
	}
	c := freshDeflate(t, raw, 6)
	if len(c) > 9<<10 {
		t.Fatalf("DEFLATE gives %d bytes, want about one 8 KiB block", len(c))
	}
	frag, err := PutTagged(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frag, append([]byte{1}, c...)) {
		t.Fatalf("stored with tag %d in %d bytes, want tag 1 and the %d-byte DEFLATE stream", frag[0], len(frag), len(c))
	}
	got, err := GetTagged(frag, len(raw))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("round trip: %v", err)
	}
}

// FuzzTagged: on any bytes and any size GetTagged returns a payload of
// exactly size bytes or ErrCorrupt, and PutTagged round-trips any input.
// The seed corpus in testdata/fuzz/FuzzTagged holds a raw frame, a DEFLATE
// frame, the periodic plane and a truncated DEFLATE stream.
func FuzzTagged(f *testing.F) {
	f.Fuzz(func(t *testing.T, frag []byte, size int) {
		got, err := GetTagged(frag, size)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("GetTagged: %v is not ErrCorrupt", err)
		}
		if err == nil && len(got) != size {
			t.Fatalf("GetTagged returned %d bytes, want %d", len(got), size)
		}
		framed, err := PutTagged(frag)
		if err != nil {
			t.Fatal(err)
		}
		back, err := GetTagged(framed, len(frag))
		if err != nil || !bytes.Equal(back, frag) {
			t.Fatalf("PutTagged does not round-trip %d bytes: %v", len(frag), err)
		}
	})
}

// FuzzInflate: on any bytes under any limit in [1, 1 MiB], Inflate
// returns at most maxSize bytes or an error wrapping ErrCorrupt, and never
// panics. What it allocates is bounded by its limit, not by what the
// stream claims: less than twice maxSize, plus the 512-byte reserve, plus
// 128 KiB for a decompressor when the pool has none. The seed corpus in
// testdata/fuzz/FuzzInflate holds the DEFLATE stream of a real bit plane,
// the stream of no bytes, and a bomb of 1 MiB of zeros under a 4 KiB limit
// and under a 600,000-byte one: just past a power of two, where growing by
// doubling up to 2^20 before clamping to the limit would allocate almost
// three times the limit.
func FuzzInflate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, maxSize int64) {
		maxSize = 1 + int64(uint64(maxSize)%(1<<20))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Inflate(data, maxSize)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Inflate: %v is not ErrCorrupt", err)
		}
		if err == nil && int64(len(got)) > maxSize {
			t.Fatalf("Inflate returned %d bytes under a limit of %d", len(got), maxSize)
		}
		reserve := min(maxSize, 512)
		if d := after.TotalAlloc - before.TotalAlloc; d > uint64(2*maxSize+reserve+128<<10) {
			t.Fatalf("Inflate allocated %d bytes under a limit of %d", d, maxSize)
		}
	})
}

// TestTaggedShortInputsEndRaw: under 10 bytes PutTagged skips the attempt
// without a test, because no level-6 stream is shorter than its input
// there. Zero runs and short periods are what DEFLATE shrinks best.
func TestTaggedShortInputsEndRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 0; n < 10; n++ {
		for k := 0; k < 200; k++ {
			raw := make([]byte, n)
			switch k % 3 {
			case 0:
				rng.Read(raw)
			case 1:
				for i := range raw {
					raw[i] = byte(k)
				}
			case 2:
				for i := range raw {
					raw[i] = byte(i % (1 + k%4))
				}
			}
			if c := freshDeflate(t, raw, 6); len(c) < n {
				t.Fatalf("%d bytes %x deflate to %d", n, raw, len(c))
			}
			frag, err := PutTagged(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frag, append([]byte{0}, raw...)) {
				t.Fatalf("%d bytes %x: not stored raw", n, raw)
			}
		}
	}
}
