// Package stats implements the quality metrics used throughout the paper's
// evaluation: L∞ (maximum absolute) error, value ranges and bitrate, plus
// a small fixed-width table renderer for the experiment drivers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// MaxAbsError returns max_i |a[i]-b[i]|. Slices must have equal length.
func MaxAbsError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(a), len(b)))
	}
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Range returns max(a)-min(a); 0 for empty or constant input.
func Range(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	lo, hi := a[0], a[0]
	for _, v := range a[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Bitrate converts a retrieved byte count into average bits per element.
func Bitrate(bytes int64, elements int) float64 {
	if elements <= 0 {
		return 0
	}
	return float64(bytes) * 8 / float64(elements)
}

// Table is a minimal fixed-width text table used by cmd/experiments to print
// the same rows the paper reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells formatted with fmt.Sprint.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatG(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatG renders a float compactly (%.4g) with Inf/NaN spelled out.
func FormatG(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
