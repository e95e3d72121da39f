package progqoi_test

// Runnable godoc examples for the public API. `go test` executes them and
// checks the printed output, so the documentation cannot rot.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"net/http/httptest"

	"progqoi"
	"progqoi/internal/core"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

func demo3Fields(n int) ([]string, [][]float64) {
	names := []string{"Vx", "Vy", "Vz"}
	fields := make([][]float64, 3)
	for f := range fields {
		data := make([]float64, n)
		for i := range data {
			data[i] = 50 * math.Sin(2*math.Pi*float64(i)/float64(n)*float64(f+1))
		}
		fields[f] = data
	}
	return names, fields
}

// Example demonstrates the minimal refactor → retrieve path with a parsed
// QoI and a certified tolerance.
func Example() {
	names, fields := demo3Fields(4096)
	arch, err := progqoi.Refactor(names, fields, []int{4096})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		log.Fatal(err)
	}
	vtot, err := progqoi.ParseQoI("VTOT", "sqrt(Vx^2+Vy^2+Vz^2)", arch.FieldNames())
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Do(context.Background(), progqoi.Request{Targets: []progqoi.Target{
		{QoI: vtot, Tolerance: 1e-3},
	}})
	if err != nil {
		log.Fatal(err)
	}
	actual := progqoi.ActualQoIErrors([]progqoi.QoI{vtot}, fields, res.Data)
	fmt.Println("tolerance met:", res.ToleranceMet)
	fmt.Println("guarantee holds:", actual[0] <= res.EstErrors[0] && res.EstErrors[0] <= 1e-3)
	// Output:
	// tolerance met: true
	// guarantee holds: true
}

// ExampleParseQoI shows the formula syntax, including the automatic
// lowering of half-integer powers into the derivable basis.
func ExampleParseQoI() {
	q, err := progqoi.ParseQoI("PT-factor", "(1 + 0.7*M^2)^3.5", []string{"M"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.6f\n", q.Expr.Eval([]float64{0.5}))
	// Output:
	// 1.758460
}

// ExampleSession_Do composes one request from heterogeneous targets — a
// relative tolerance over a region of interest next to an absolute
// whole-domain tolerance — and streams per-iteration progress. The context
// would cancel or deadline the retrieval end to end, including in-flight
// HTTP fetches on a remote archive.
func ExampleSession_Do() {
	names, fields := demo3Fields(4096)
	arch, err := progqoi.Refactor(names, fields, []int{4096})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		log.Fatal(err)
	}
	vtot := progqoi.TotalVelocity(0, 1, 2)
	vx2, err := progqoi.ParseQoI("Vx2", "Vx^2", names)
	if err != nil {
		log.Fatal(err)
	}
	ranges := progqoi.QoIRanges([]progqoi.QoI{vtot}, fields)

	progressed := 0
	res, err := sess.Do(context.Background(), progqoi.Request{
		Targets: []progqoi.Target{
			{QoI: vtot, Tolerance: 1e-6, Relative: true, Range: ranges[0], Region: progqoi.Region{Lo: 0, Hi: 1024}},
			{QoI: vx2, Tolerance: 1e-2},
		},
		OnProgress: func(it progqoi.Iteration) { progressed = it.N },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("certified:", res.ToleranceMet)
	fmt.Println("progress streamed:", progressed == res.Iterations && progressed > 0)
	fmt.Println("region bound tight:", res.EstErrors[0] <= 1e-6*ranges[0])
	// Output:
	// certified: true
	// progress streamed: true
	// region bound tight: true
}

// Example_packAndServe is the producer-to-server vertical: pack fields
// into a store with the streaming parallel ingest, serve the store with
// the fragment service, publish a second dataset to the running server
// with one admin reload, and retrieve both over the wire. This is exactly
// what `progqoi pack` + `progqoid -admin` + `POST /v1/datasets/reload` do
// across processes.
func Example_packAndServe() {
	names, fields := demo3Fields(2048)
	st := storage.NewMemStore()
	opt := core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	}
	if _, err := storage.RefactorTo(context.Background(), st, "alpha", names, []int{2048}, opt,
		func(i int) ([]float64, error) { return fields[i], nil }); err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(context.Background(), st, server.Options{AdminToken: "token"})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx := context.Background()

	arch, err := progqoi.Open(ctx, hs.URL+"/alpha")
	if err != nil {
		log.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		log.Fatal(err)
	}
	vtot := progqoi.TotalVelocity(0, 1, 2)
	res, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{{QoI: vtot, Tolerance: 1e-3}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("alpha certified over the wire:", res.ToleranceMet)

	// Publish a second dataset to the live server: pack, then reload.
	if _, err := storage.RefactorTo(context.Background(), st, "beta", names, []int{2048}, opt,
		func(i int) ([]float64, error) { return fields[i], nil }); err != nil {
		log.Fatal(err)
	}
	if _, err := srv.Reload(context.Background()); err != nil { // over HTTP: POST /v1/datasets/reload
		log.Fatal(err)
	}
	fmt.Println("served after hot publish:", srv.Datasets())
	// Output:
	// alpha certified over the wire: true
	// served after hot publish: [alpha beta]
}

// Example_streamingIngest shows the bounded-memory producer path:
// storage.RefactorTo loads, refactors and flushes one variable at a time
// (manifest last, so a crash mid-pack publishes nothing) and its store
// contents are byte-identical to the in-memory Refactor + WriteArchive
// pipeline — at any worker-pool setting.
func Example_streamingIngest() {
	ctx := context.Background()
	names, fields := demo3Fields(2048)
	opt := core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
	}

	// In-memory reference: refactor everything, then write.
	vars, err := core.RefactorVariables(names, fields, []int{2048}, opt)
	if err != nil {
		log.Fatal(err)
	}
	ref := storage.NewMemStore()
	if err := storage.WriteArchive(context.Background(), ref, "demo", vars); err != nil {
		log.Fatal(err)
	}

	// Streaming: one variable resident at a time, parallel encode pool.
	streamed := storage.NewMemStore()
	opt.Workers = 8
	loaded := 0
	if _, err := storage.RefactorTo(context.Background(), streamed, "demo", names, []int{2048}, opt,
		func(i int) ([]float64, error) { loaded++; return fields[i], nil }); err != nil {
		log.Fatal(err)
	}

	identical := true
	keys, _ := ref.Keys(ctx)
	for _, k := range keys {
		a, _ := ref.Get(ctx, k)
		b, err := streamed.Get(ctx, k)
		if err != nil || !bytes.Equal(a, b) {
			identical = false
		}
	}
	fmt.Println("fields loaded one at a time:", loaded == len(fields))
	fmt.Println("store byte-identical to Refactor+WriteArchive:", identical)
	// Output:
	// fields loaded one at a time: true
	// store byte-identical to Refactor+WriteArchive: true
}

// ExampleSession_Do_incremental shows incremental tightening: the second
// request reuses every byte the first one fetched.
func ExampleSession_Do_incremental() {
	names, fields := demo3Fields(2048)
	arch, err := progqoi.Refactor(names, fields, []int{2048})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	vtot := progqoi.TotalVelocity(0, 1, 2)
	r1, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{{QoI: vtot, Tolerance: 1e-1}}})
	if err != nil {
		log.Fatal(err)
	}
	r2, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{{QoI: vtot, Tolerance: 1e-8}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bytes grow monotonically:", r2.RetrievedBytes >= r1.RetrievedBytes)
	fmt.Println("both certified:", r1.ToleranceMet && r2.ToleranceMet)
	// Output:
	// bytes grow monotonically: true
	// both certified: true
}
