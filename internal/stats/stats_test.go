package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMaxAbsError(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1.5, 2, 2}
	if got := MaxAbsError(a, b); got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
	if got := MaxAbsError(nil, nil); got != 0 {
		t.Fatalf("empty: got %v", got)
	}
}

func TestMaxAbsErrorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxAbsError([]float64{1}, []float64{1, 2})
}

func TestRange(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Range(xs); got != 6 {
		t.Fatalf("range = %v", got)
	}
	if Range(nil) != 0 || Range([]float64{7}) != 0 {
		t.Fatal("degenerate ranges should be 0")
	}
}

func TestBitrate(t *testing.T) {
	if got := Bitrate(100, 100); got != 8 {
		t.Fatalf("got %v", got)
	}
	if got := Bitrate(100, 0); got != 0 {
		t.Fatalf("zero elements: got %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", math.Inf(1))
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") || !strings.Contains(out, "inf") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
}

func TestFormatG(t *testing.T) {
	if FormatG(math.NaN()) != "nan" || FormatG(math.Inf(-1)) != "-inf" {
		t.Fatal("special values")
	}
	if FormatG(0.125) != "0.125" {
		t.Fatalf("got %q", FormatG(0.125))
	}
}
