package encoding

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
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
