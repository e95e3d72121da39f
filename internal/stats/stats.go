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

// Table is a minimal fixed-width text table: the rows one experiment
// reports, kept as the values it gave, rendered by String.
type Table struct {
	Title  string
	Header []string
	Rows   [][]any
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...any) { t.Rows = append(t.Rows, cells) }

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

// String renders the title, if any, then the table with aligned columns;
// float64 cells are formatted with FormatG, others with fmt.Sprint.
func (t *Table) String() string {
	cells := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for i, c := range row {
			if v, ok := c.(float64); ok {
				cells[r][i] = FormatG(v)
			} else {
				cells[r][i] = fmt.Sprint(c)
			}
			if i < len(widths) && len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
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
	for _, r := range cells {
		writeRow(r)
	}
	return b.String()
}
