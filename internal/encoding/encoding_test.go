package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitIORoundTrip(t *testing.T) {
	w := NewBitWriter(16)
	vals := []struct {
		v  uint64
		nb uint
	}{
		{1, 1}, {0, 1}, {5, 3}, {255, 8}, {1023, 10}, {0x1ffffffffffffff, 57}, {42, 7},
	}
	for _, e := range vals {
		w.WriteBits(e.v, e.nb)
	}
	r := NewBitReader(w.Bytes())
	for i, e := range vals {
		got, err := r.ReadBits(e.nb)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != e.v {
			t.Fatalf("read %d = %d, want %d", i, got, e.v)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestBitWriterPanicsOver57(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitWriter(1).WriteBits(0, 58)
}

func TestBitIOPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		vs := make([]uint64, n)
		nbs := make([]uint, n)
		w := NewBitWriter(64)
		for i := range vs {
			nbs[i] = uint(rng.Intn(57) + 1)
			vs[i] = rng.Uint64() & ((1 << nbs[i]) - 1)
			w.WriteBits(vs[i], nbs[i])
		}
		r := NewBitReader(w.Bytes())
		for i := range vs {
			got, err := r.ReadBits(nbs[i])
			if err != nil || got != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanRoundTripBasic(t *testing.T) {
	syms := []int{0, 1, 1, 2, 2, 2, 2, 3, 0, 1, 2, 2}
	enc, err := HuffmanEncode(syms, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := HuffmanDecode(enc, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("len = %d, want %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("sym %d = %d, want %d", i, dec[i], syms[i])
		}
	}
}

// TestHuffmanForgedHeader: a header whose symbol count the payload cannot
// hold, or whose alphabet is empty, is refused as corrupt before the
// decoder sizes anything by it. At 1<<22 symbols behind a 2-symbol code
// the output alone would be 32 MiB. An empty alphabet would leave the
// length table's inflate unbounded: here, 16 MiB from 16 KiB.
func TestHuffmanForgedHeader(t *testing.T) {
	enc, err := HuffmanEncode([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := slices.Clone(enc)
	binary.LittleEndian.PutUint32(count[4:], 1<<22)
	bomb, err := Deflate(make([]byte, 1<<24), 6)
	if err != nil {
		t.Fatal(err)
	}
	empty := PutSection(make([]byte, 8), bomb)
	for name, data := range map[string][]byte{"count": count, "empty alphabet": empty} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := HuffmanDecode(data, 1<<28)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, d)
		}
	}
}

// huffmanSeeds are HuffmanEncode outputs: the empty stream, a short
// skewed one, one symbol repeated, and a wide alphabet with long codes.
func huffmanSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(5))
	wide := make([]int, 600)
	for i := range wide {
		wide[i] = int(math.Abs(rng.NormFloat64()) * 40)
	}
	var out [][]byte
	for _, c := range []struct {
		syms     []int
		alphabet int
	}{
		{nil, 10},
		{[]int{0, 1, 1, 2, 2, 2, 2, 3, 0, 1, 2, 2}, 4},
		{slices.Repeat([]int{7}, 100), 16},
		{wide, 256},
	} {
		enc, err := HuffmanEncode(c.syms, c.alphabet)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// FuzzHuffmanDecode: HuffmanDecode refuses a stream with ErrCorrupt, or
// returns at most 8 symbols per input byte that HuffmanEncode, under the
// stream's own alphabet, encodes to a stream that decodes back to them.
func FuzzHuffmanDecode(f *testing.F) {
	for _, enc := range huffmanSeeds(f) {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := HuffmanDecode(data, 1<<28)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("HuffmanDecode: %v is not ErrCorrupt", err)
			}
			return
		}
		if len(out) > 8*len(data) {
			t.Fatalf("%d symbols from %d bytes", len(out), len(data))
		}
		enc, err := HuffmanEncode(out, int(binary.LittleEndian.Uint32(data)))
		if err != nil {
			t.Fatalf("decoded symbols do not encode: %v", err)
		}
		if back, err := HuffmanDecode(enc, 1<<28); err != nil || !slices.Equal(back, out) {
			t.Fatalf("decoded symbols do not round-trip: %v", err)
		}
	})
}

func TestHuffmanEmpty(t *testing.T) {
	enc, err := HuffmanEncode(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := HuffmanDecode(enc, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("want empty, got %v", dec)
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	syms := make([]int, 1000)
	for i := range syms {
		syms[i] = 7
	}
	enc, err := HuffmanEncode(syms, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Single-symbol streams should be tiny: ~1 bit/sym.
	if len(enc) > 8+16+150 {
		t.Fatalf("single-symbol encoding too large: %d bytes", len(enc))
	}
	dec, err := HuffmanDecode(enc, 1<<28)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range dec {
		if s != 7 {
			t.Fatalf("sym %d = %d", i, s)
		}
	}
}

func TestHuffmanRejectsOutOfAlphabet(t *testing.T) {
	if _, err := HuffmanEncode([]int{0, 5}, 5); err == nil {
		t.Fatal("expected error for symbol = alphabet")
	}
	if _, err := HuffmanEncode([]int{-1}, 5); err == nil {
		t.Fatal("expected error for negative symbol")
	}
	if _, err := HuffmanEncode(nil, 0); err == nil {
		t.Fatal("expected error for empty alphabet")
	}
}

func TestHuffmanDecodeCorrupt(t *testing.T) {
	syms := []int{1, 2, 3, 1, 2, 3, 0, 0, 0}
	enc, err := HuffmanEncode(syms, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 7, len(enc) - 1} {
		if _, err := HuffmanDecode(enc[:cut], 1<<28); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Header corruption: implausible alphabet.
	bad := append([]byte(nil), enc...)
	bad[3] = 0xff
	if _, err := HuffmanDecode(bad, 1<<28); err == nil {
		t.Error("corrupt alphabet not detected")
	}
}

func TestHuffmanPropertyRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := rng.Intn(300) + 1
		n := rng.Intn(2000)
		syms := make([]int, n)
		for i := range syms {
			// Skewed distribution: mostly small symbols, like quantizer output.
			s := int(math.Abs(rng.NormFloat64()) * float64(alpha) / 6)
			if s >= alpha {
				s = alpha - 1
			}
			syms[i] = s
		}
		enc, err := HuffmanEncode(syms, alpha)
		if err != nil {
			return false
		}
		dec, err := HuffmanDecode(enc, 1<<28)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range syms {
			if dec[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64 + 1} {
		if got := UnZigZag(ZigZag(v)); got != v {
			t.Errorf("UnZigZag(ZigZag(%d)) = %d", v, got)
		}
	}
	// Small magnitudes stay small.
	if ZigZag(0) != 0 || ZigZag(-1) != 1 || ZigZag(1) != 2 || ZigZag(-2) != 3 {
		t.Error("zigzag ordering wrong")
	}
}

func TestDeflateInflateRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("progressive retrieval "), 100)
	for _, lvl := range []int{0, 1, 6, 9} {
		c, err := Deflate(data, lvl)
		if err != nil {
			t.Fatal(err)
		}
		if len(c) >= len(data) {
			t.Errorf("level %d: no compression (%d >= %d)", lvl, len(c), len(data))
		}
		d, err := Inflate(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d, data) {
			t.Fatalf("level %d: round trip mismatch", lvl)
		}
	}
}

func TestInflateLimit(t *testing.T) {
	data := make([]byte, 10000)
	c, err := Deflate(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inflate(c, 100); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("size limit not enforced: %v", err)
	}
}

func TestInflateGarbage(t *testing.T) {
	if _, err := Inflate([]byte{0xde, 0xad, 0xbe, 0xef}, 0); err == nil {
		t.Fatal("garbage should not inflate")
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -math.Pi, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	buf := PutFloat64s(vals)
	got, n, err := GetFloat64s(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	for i := range vals {
		if math.IsNaN(vals[i]) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("val %d: want NaN", i)
			}
			continue
		}
		if got[i] != vals[i] {
			t.Fatalf("val %d = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestFloat64sCorrupt(t *testing.T) {
	buf := PutFloat64s([]float64{1, 2, 3})
	if _, _, err := GetFloat64s(buf[:10]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("truncation not detected")
	}
	if _, _, err := GetFloat64s([]byte{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatal("short header not detected")
	}
}

func TestSectionRoundTrip(t *testing.T) {
	var buf []byte
	buf = PutSection(buf, []byte("alpha"))
	buf = PutSection(buf, nil)
	buf = PutSection(buf, []byte("beta"))
	p1, n1, err := GetSection(buf)
	if err != nil || string(p1) != "alpha" {
		t.Fatalf("section 1: %q %v", p1, err)
	}
	p2, n2, err := GetSection(buf[n1:])
	if err != nil || len(p2) != 0 {
		t.Fatalf("section 2: %q %v", p2, err)
	}
	p3, _, err := GetSection(buf[n1+n2:])
	if err != nil || string(p3) != "beta" {
		t.Fatalf("section 3: %q %v", p3, err)
	}
}

func TestSectionCorrupt(t *testing.T) {
	buf := PutSection(nil, []byte("payload"))
	if _, _, err := GetSection(buf[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("truncated section not detected")
	}
	if _, _, err := GetSection([]byte{1, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatal("short header not detected")
	}
}

func TestCRCRoundTrip(t *testing.T) {
	blob := []byte("payload with checksum")
	framed := AppendCRC(blob)
	got, err := CheckCRC(framed)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("%q %v", got, err)
	}
	framed[0] ^= 1
	if _, err := CheckCRC(framed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: %v, want ErrCorrupt", err)
	}
	if _, err := CheckCRC([]byte{1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short blob: %v, want ErrCorrupt", err)
	}
	// With spare capacity the trailer goes in place, with no copy.
	buf := make([]byte, 3, 3+CRCSize)
	if framed := AppendCRC(buf); &framed[0] != &buf[0] || len(framed) != 3+CRCSize {
		t.Fatal("AppendCRC copied a blob that had room for its trailer")
	}
}
