// Command live_publish demonstrates the full producer-to-server vertical
// of PR 5 end to end, in one process: stream-pack a dataset into an
// archive directory with the parallel ingest pipeline, serve it with the
// fragment service, retrieve it over the wire — then pack a second
// dataset into the directory of the *running* server and publish it with
// one admin reload, proving the consumer needs no restart and the
// pre-publish session keeps working.
//
//	go run ./examples/live_publish
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"progqoi"
	"progqoi/internal/core"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

func synthFields(n int, phase float64) ([]string, [][]float64) {
	names := []string{"Vx", "Vy", "Vz"}
	fields := make([][]float64, len(names))
	for f := range fields {
		data := make([]float64, n)
		for i := range data {
			data[i] = 80 * math.Sin(2*math.Pi*float64(i)/float64(n)*float64(f+1)+phase)
		}
		fields[f] = data
	}
	return names, fields
}

// pack streams one dataset into the directory, reporting ingest
// throughput — the same path `progqoi pack -workers` takes.
func pack(ctx context.Context, st storage.Store, dataset string, n int, phase float64) ([]string, [][]float64) {
	names, fields := synthFields(n, phase)
	start := time.Now()
	stored, err := storage.RefactorTo(ctx, st, dataset, names, []int{n}, core.RefactorOptions{
		Progressive: progressive.Options{Method: progressive.PMGARDHB, LosslessTail: true},
		MaskZeros:   true,
		Workers:     runtime.GOMAXPROCS(0),
	}, func(i int) ([]float64, error) { return fields[i], nil })
	if err != nil {
		log.Fatal(err)
	}
	raw := float64(n*len(names)*8) / (1 << 20)
	fmt.Printf("packed %q: %.1f MiB raw -> %d stored bytes in %v (%.1f MiB/s)\n",
		dataset, raw, stored, time.Since(start).Round(time.Millisecond),
		raw/time.Since(start).Seconds())
	return names, fields
}

func retrieve(ctx context.Context, url, dataset string, names []string, fields [][]float64) {
	arch, err := progqoi.Open(ctx, url+"/"+dataset)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := arch.Open()
	if err != nil {
		log.Fatal(err)
	}
	vtot := progqoi.TotalVelocity(0, 1, 2)
	ranges := progqoi.QoIRanges([]progqoi.QoI{vtot}, fields)
	res, err := sess.Do(ctx, progqoi.Request{Targets: []progqoi.Target{
		{QoI: vtot, Tolerance: 1e-4, Relative: true, Range: ranges[0]},
	}})
	if err != nil {
		log.Fatal(err)
	}
	actual := progqoi.ActualQoIErrors([]progqoi.QoI{vtot}, fields, res.Data)
	fmt.Printf("retrieved %q over the wire: certified=%v actual<=est=%v (%d bytes)\n",
		dataset, res.ToleranceMet, actual[0] <= res.EstErrors[0], res.RetrievedBytes)
}

func main() {
	const token = "demo-admin-token"
	dir, err := os.MkdirTemp("", "live_publish")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	st, err := storage.NewDirStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Day 0: pack and serve the first dataset.
	namesA, fieldsA := pack(ctx, st, "run-000", 1<<15, 0)
	srv, err := server.New(ctx, st, server.Options{AdminToken: token})
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv) // stands in for `progqoid -store dir -admin TOKEN`
	defer hs.Close()
	retrieve(ctx, hs.URL, "run-000", namesA, fieldsA)

	// Later: a new simulation run lands while the server keeps serving.
	namesB, fieldsB := pack(ctx, st, "run-001", 1<<15, 1.7)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/datasets/reload", nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read-only demo request
	fmt.Printf("hot publish: %s %s\n", resp.Status, body)

	// The new dataset is live without any restart; the old one still is.
	retrieve(ctx, hs.URL, "run-001", namesB, fieldsB)
	retrieve(ctx, hs.URL, "run-000", namesA, fieldsA)
}
