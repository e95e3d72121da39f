package progqoi

import (
	"context"
	"errors"
	"math"
	"testing"
)

func demoFields(n int) ([]string, [][]float64, []int) {
	names := []string{"Vx", "Vy", "Vz"}
	fields := make([][]float64, 3)
	for f := range fields {
		data := make([]float64, n)
		for i := range data {
			t := float64(i) / float64(n)
			data[i] = 80 * math.Sin(2*math.Pi*(float64(f)+2)*t+float64(f))
		}
		fields[f] = data
	}
	return names, fields, []int{n}
}

func TestPublicAPIQuickPath(t *testing.T) {
	names, fields, dims := demoFields(2000)
	arch, err := Refactor(names, fields, dims)
	if err != nil {
		t.Fatal(err)
	}
	if arch.StoredBytes() <= 0 {
		t.Fatal("no stored bytes")
	}
	sess, err := arch.Open()
	if err != nil {
		t.Fatal(err)
	}
	vtot, err := ParseQoI("VTOT", "sqrt(Vx^2+Vy^2+Vz^2)", arch.FieldNames())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ToleranceMet {
		t.Fatal("tolerance not met")
	}
	actual := ActualQoIErrors([]QoI{vtot}, fields, res.Data)
	if actual[0] > 1e-3 {
		t.Fatalf("actual QoI error %g exceeds tolerance", actual[0])
	}
	if res.RetrievedBytes >= int64(2000*8*3) {
		t.Fatalf("retrieved %d bytes, no saving vs raw", res.RetrievedBytes)
	}
}

func TestAllMethodsThroughFacade(t *testing.T) {
	names, fields, dims := demoFields(800)
	vtot := TotalVelocity(0, 1, 2)
	for _, m := range []Method{PSZ3, PSZ3Delta, PMGARD, PMGARDHB} {
		arch, err := Refactor(names, fields, dims, WithMethod(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		sess, err := arch.Open()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-4}}})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		actual := ActualQoIErrors([]QoI{vtot}, fields, res.Data)
		if actual[0] > res.EstErrors[0] || res.EstErrors[0] > 1e-4 {
			t.Errorf("%v: actual %g est %g", m, actual[0], res.EstErrors[0])
		}
	}
}

func TestRetrieveRelative(t *testing.T) {
	names, fields, dims := demoFields(1000)
	arch, err := Refactor(names, fields, dims)
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := arch.Open()
	vtot := TotalVelocity(0, 1, 2)
	ranges := QoIRanges([]QoI{vtot}, fields)
	res, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-5, Relative: true, Range: ranges[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	actual := ActualQoIErrors([]QoI{vtot}, fields, res.Data)
	if actual[0] > 1e-5*ranges[0] {
		t.Fatalf("relative tolerance violated: %g vs %g", actual[0], 1e-5*ranges[0])
	}
	if _, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-5, Relative: true}}}); err == nil {
		t.Fatal("relative target without a range accepted")
	}
}

func TestFetchObserverThroughFacade(t *testing.T) {
	names, fields, dims := demoFields(500)
	arch, _ := Refactor(names, fields, dims)
	var seen int64
	sess, err := arch.Open(WithFetchObserver(func(i int, size int64) { seen += size }))
	if err != nil {
		t.Fatal(err)
	}
	vtot := TotalVelocity(0, 1, 2)
	if _, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-2}}}); err != nil {
		t.Fatal(err)
	}
	if seen != sess.RetrievedBytes() {
		t.Fatalf("observer saw %d, session counted %d", seen, sess.RetrievedBytes())
	}
}

func TestGEQoIsExported(t *testing.T) {
	qois := GEQoIs()
	if len(qois) != 6 {
		t.Fatalf("want 6, got %d", len(qois))
	}
	names := map[string]bool{}
	for _, q := range qois {
		names[q.Name] = true
	}
	for _, want := range []string{"VTOT", "T", "C", "Mach", "PT", "mu"} {
		if !names[want] {
			t.Errorf("missing QoI %s", want)
		}
	}
}

func TestParseQoIError(t *testing.T) {
	if _, err := ParseQoI("bad", "sqrt(", []string{"x"}); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

func TestExhaustedSurfaced(t *testing.T) {
	// A representation without a lossless tail and with very few snapshot
	// levels cannot certify an extreme tolerance: ErrExhausted plus a
	// best-effort result.
	names, fields, dims := demoFields(300)
	arch, err := Refactor(names, fields, dims,
		WithMethod(PSZ3),
		WithLosslessTail(false),
		WithSnapshotBounds([]float64{1, 1e-2}))
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := arch.Open()
	vtot := TotalVelocity(0, 1, 2)
	res, err := sess.Do(context.Background(), Request{Targets: []Target{{QoI: vtot, Tolerance: 1e-12}}})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if res == nil || res.ToleranceMet {
		t.Fatal("best-effort result expected")
	}
}

func TestRetrieveRegionsThroughFacade(t *testing.T) {
	names, fields, dims := demoFields(1200)
	arch, err := Refactor(names, fields, dims)
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := arch.Open()
	vtot := TotalVelocity(0, 1, 2)
	hot := Region{Lo: 0, Hi: 300}
	res, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1e-6, Region: hot},
		{QoI: vtot, Tolerance: 1e-2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ToleranceMet {
		t.Fatal("region request not certified")
	}
	// The hot region must actually meet the tight tolerance.
	hotOrig := make([][]float64, 3)
	hotRecon := make([][]float64, 3)
	for v := range fields {
		hotOrig[v] = fields[v][hot.Lo:hot.Hi]
		hotRecon[v] = res.Data[v][hot.Lo:hot.Hi]
	}
	if e := ActualQoIErrors([]QoI{vtot}, hotOrig, hotRecon); e[0] > 1e-6 {
		t.Fatalf("hot region error %g", e[0])
	}
	if _, err := sess.Do(context.Background(), Request{Targets: []Target{
		{QoI: vtot, Tolerance: 1, Region: Region{Lo: -1, Hi: 2}}}}); err == nil {
		t.Fatal("invalid region accepted")
	}
}

func TestArchiveAccessors(t *testing.T) {
	names, fields, dims := demoFields(100)
	arch, _ := Refactor(names, fields, dims)
	got := arch.FieldNames()
	got[0] = "mutated"
	if arch.FieldNames()[0] == "mutated" {
		t.Fatal("FieldNames must return a copy")
	}
	d := arch.Dims()
	d[0] = -1
	if arch.Dims()[0] == -1 {
		t.Fatal("Dims must return a copy")
	}
	if len(arch.Variables()) != 3 {
		t.Fatal("Variables accessor broken")
	}
}
