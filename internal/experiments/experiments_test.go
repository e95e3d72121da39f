package experiments

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"progqoi/internal/stats"
)

var quick = Opts{Quick: true}

// quickRows is the number of tolerances o.sweep(20) yields at Quick scale.
const quickRows = 5

// runs keeps each experiment's tables, keyed by its function, so a shape
// test reads the run its figure's test made. The tests are not parallel.
var runs = map[uintptr][]*stats.Table{}

func run(t *testing.T, fn func(context.Context, Opts) ([]*stats.Table, error)) []*stats.Table {
	t.Helper()
	key := reflect.ValueOf(fn).Pointer()
	if tables, ok := runs[key]; ok {
		return tables
	}
	tables, err := fn(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	runs[key] = tables
	return tables
}

// wantPanels checks one table per label, in order: its title starts with
// fig and ends with "[label]" (a figure of one table has the label ""), its
// header is header and it has rows rows, each as wide as the header.
func wantPanels(t *testing.T, tables []*stats.Table, fig string, labels, header []string, rows int) {
	t.Helper()
	if len(tables) != len(labels) {
		t.Fatalf("%s: %d tables, want %d", fig, len(tables), len(labels))
	}
	for i, tab := range tables {
		if !strings.HasPrefix(tab.Title, fig+":") || labels[i] != "" && !strings.HasSuffix(tab.Title, "["+labels[i]+"]") {
			t.Errorf("table %d title %q, want %q … [%s]", i, tab.Title, fig+":", labels[i])
		}
		if !slices.Equal(tab.Header, header) {
			t.Errorf("%s: header %q, want %q", tab.Title, tab.Header, header)
		}
		if len(tab.Rows) != rows {
			t.Errorf("%s: %d rows, want %d", tab.Title, len(tab.Rows), rows)
		}
		for _, r := range tab.Rows {
			if len(r) != len(header) {
				t.Errorf("%s: row %v is not as wide as the header", tab.Title, r)
			}
		}
	}
}

// num returns the float64 cell at row r, column c.
func num(t *testing.T, tab *stats.Table, r, c int) float64 {
	t.Helper()
	v, ok := tab.Rows[r][c].(float64)
	if !ok {
		t.Fatalf("%s: row %d column %s is %T, want float64", tab.Title, r, tab.Header[c], tab.Rows[r][c])
	}
	return v
}

func TestTable3(t *testing.T) {
	tables := run(t, Table3)
	wantPanels(t, tables, "Table III", []string{""},
		[]string{"Dataset", "Dimensions", "nv", "Type", "Size", "QoIs"}, 5)
	for i, ds := range []string{"GE-small", "Hurricane", "NYX", "S3D", "GE-large"} {
		if got := tables[0].Rows[i][0]; got != ds {
			t.Errorf("row %d dataset %v, want %s", i, got, ds)
		}
	}
}

var fig2Header = []string{"rel_eb", "PSZ3", "PSZ3-delta", "PMGARD", "PMGARD-HB"}

func TestFig2(t *testing.T) {
	wantPanels(t, run(t, Fig2), "Fig. 2", fig2Fields, fig2Header, quickRows)
}

func TestFig3(t *testing.T) {
	wantPanels(t, run(t, Fig3), "Fig. 3", fig2Fields,
		[]string{"rel_tol", "bitrate(OB)", "est(OB)", "real(OB)", "bitrate(HB)", "est(HB)", "real(HB)"}, quickRows)
}

var qoiHeader = []string{"req_rel_tol", "bitrate", "max_est_rel", "max_actual_rel"}

func TestFig4(t *testing.T) {
	wantPanels(t, run(t, Fig4), "Fig. 4", []string{
		"GE-small :: VTOT", "GE-small :: T", "GE-small :: C", "GE-small :: Mach", "GE-small :: PT", "GE-small :: mu",
	}, qoiHeader, quickRows)
}

func TestFig5(t *testing.T) {
	wantPanels(t, run(t, Fig5), "Fig. 5", []string{"NYX :: VTOT", "Hurricane :: VTOT"}, qoiHeader, quickRows)
}

var s3dPanels = []string{"S3D :: x1*x3", "S3D :: x4*x5", "S3D :: x0*x4", "S3D :: x3*x5"}

func TestFig6(t *testing.T) {
	wantPanels(t, run(t, Fig6), "Fig. 6", s3dPanels, qoiHeader, quickRows)
}

var fig7Header = []string{"req_rel_tol", "PSZ3", "PSZ3-delta", "PMGARD-HB"}

func TestFig7(t *testing.T) {
	wantPanels(t, run(t, Fig7), "Fig. 7", []string{
		"GE-small :: VTOT", "GE-small :: T", "GE-small :: C", "GE-small :: Mach", "GE-small :: PT", "GE-small :: mu",
	}, fig7Header, quickRows)
}

func TestFig8(t *testing.T) {
	wantPanels(t, run(t, Fig8), "Fig. 8", s3dPanels, fig7Header, quickRows)
}

func TestTable4(t *testing.T) {
	tables := run(t, Table4)
	wantPanels(t, tables, "Table IV", []string{""},
		[]string{"Compressor", "Refactoring(s)", "1E-1", "1E-2", "1E-3", "1E-4", "1E-5"}, 3)
	for i, m := range []string{"PSZ3", "PSZ3-delta", "PMGARD-HB"} {
		if got := tables[0].Rows[i][0]; got != m {
			t.Errorf("row %d compressor %v, want %s", i, got, m)
		}
	}
}

func TestFig9(t *testing.T) {
	tables := run(t, Fig9)
	wantPanels(t, tables, "Fig. 9", []string{""},
		[]string{"req_rel_tol(VTOT)", "retrieved_MB", "transfer_time(s)", "speedup_vs_raw"}, 5)
	if !strings.Contains(tables[0].Title, "raw transfer baseline") {
		t.Errorf("Fig. 9 title %q lacks the raw baseline", tables[0].Title)
	}
}

// TestFig3EstimateDominatesReal asserts Fig. 3's point: for both bases the
// estimated primary-data bound is never below the real error.
func TestFig3EstimateDominatesReal(t *testing.T) {
	for _, tab := range run(t, Fig3) {
		for r := range tab.Rows {
			for _, c := range []int{2, 5} { // est(OB), est(HB); real is the next column
				if est, real := num(t, tab, r, c), num(t, tab, r, c+1); real > est {
					t.Errorf("%s rel_tol %g: %s %g > %s %g", tab.Title, num(t, tab, r, 0),
						tab.Header[c+1], real, tab.Header[c], est)
				}
			}
		}
	}
}

// TestFigs4to6Certified asserts Figs. 4–6: every QoI's actual error is
// within the estimate, and the estimate within the requested tolerance.
func TestFigs4to6Certified(t *testing.T) {
	for _, fn := range []func(context.Context, Opts) ([]*stats.Table, error){Fig4, Fig5, Fig6} {
		for _, tab := range run(t, fn) {
			for r := range tab.Rows {
				req, est, actual := num(t, tab, r, 0), num(t, tab, r, 2), num(t, tab, r, 3)
				if !(actual <= est && est <= req) {
					t.Errorf("%s: actual %g ≤ est %g ≤ requested %g does not hold", tab.Title, actual, est, req)
				}
			}
		}
	}
}

// TestFigs7and8PMGARDHBMonotone asserts that PMGARD-HB, which refines one
// representation, never fetches less for a tighter tolerance. The snapshot
// methods are not asserted: at this scale PSZ3 fetches more at rel 0.1 than
// at the next tolerance for several QoIs.
func TestFigs7and8PMGARDHBMonotone(t *testing.T) {
	for _, fn := range []func(context.Context, Opts) ([]*stats.Table, error){Fig7, Fig8} {
		for _, tab := range run(t, fn) {
			for r := 1; r < len(tab.Rows); r++ {
				if num(t, tab, r, 0) >= num(t, tab, r-1, 0) {
					t.Fatalf("%s: tolerances do not tighten down the rows", tab.Title)
				}
				if cur, prev := num(t, tab, r, 3), num(t, tab, r-1, 3); cur < prev {
					t.Errorf("%s rel %g: PMGARD-HB bitrate %g < %g at the looser tolerance",
						tab.Title, num(t, tab, r, 0), cur, prev)
				}
			}
		}
	}
}

// TestFig9BeatsRaw asserts Fig. 9's headline: retrieving VTOT to each
// tolerance, 1e-5 included, moves data faster than shipping the raw fields.
func TestFig9BeatsRaw(t *testing.T) {
	tab := run(t, Fig9)[0]
	if last := num(t, tab, len(tab.Rows)-1, 0); last != 1e-5 {
		t.Fatalf("tightest tolerance %g, want 1e-5", last)
	}
	for r := range tab.Rows {
		if s := num(t, tab, r, 3); !(s > 1) {
			t.Errorf("rel %g: speedup_vs_raw %g, want > 1", num(t, tab, r, 0), s)
		}
	}
}
