// remote_transfer reproduces the paper's Fig. 9 scenario: refactored CFD
// blocks live at a storage site, and a compute site retrieves the total
// velocity QoI across a simulated Globus-class wide-area link with one
// worker per block. Progressive QoI-aware retrieval moves a fraction of the
// raw bytes and beats shipping the originals once any error is tolerable.
//
// With -url the same workload additionally runs against a *real* fragment
// server (internal/server over HTTP): pass "self" to serve the blocks
// in-process on a loopback port, or a base URL of a progqoid already
// hosting datasets block0..block<N-1>. The table then shows the simulated
// wire bytes next to the fragment payload bytes the real client fetched
// over HTTP (the same unit netsim accounts: fragments cross the wire as
// stored) — identical on the first pass, and smaller for the real
// client afterwards because its fragment cache makes repeated requests
// free.
//
// With -url self -nodes 3 the blocks are served by a 3-node in-process
// cluster instead of one server: fragment fetches shard across the nodes
// by rendezvous hashing (progqoi.WithEndpoints) and the retrieval results
// stay bit-identical — the sharded wire bytes appear in the same column.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"progqoi"
	"progqoi/internal/datagen"
	"progqoi/internal/netsim"
	"progqoi/internal/server"
	"progqoi/internal/storage"
)

func main() {
	urlFlag := flag.String("url", "", `also retrieve over a real fragment server: "self" serves in-process, otherwise a progqoid base URL hosting block0..blockN datasets`)
	nodes := flag.Int("nodes", 1, `with -url self: serve the blocks from this many cluster nodes and shard fetches across them`)
	flag.Parse()

	const workers = 16
	ds := datagen.GE("GE-blocks", workers, 2048, 7)
	blockSize := ds.NumElements() / workers
	names := ds.FieldNames[:3] // VTOT needs the velocity components only
	rawBytes := int64(ds.NumElements()) * 8 * 3

	// One archive per block, like the per-core decomposition in the paper.
	archives := make([]*progqoi.Archive, workers)
	blocks := make([][][]float64, workers)
	for b := 0; b < workers; b++ {
		fields := make([][]float64, 3)
		for f := 0; f < 3; f++ {
			fields[f] = ds.Fields[f][b*blockSize : (b+1)*blockSize]
		}
		blocks[b] = fields
		arch, err := progqoi.Refactor(names, fields, []int{blockSize})
		if err != nil {
			log.Fatal(err)
		}
		archives[b] = arch
	}

	// Optionally stand up / connect to the real server.
	var remotes []*progqoi.Archive
	if *urlFlag != "" {
		bases := []string{*urlFlag}
		if *urlFlag == "self" {
			var err error
			bases, err = serveSelf(archives, max(*nodes, 1))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("serving %d block datasets in-process from %d node(s) at %v\n", workers, len(bases), bases)
		}
		remotes = make([]*progqoi.Archive, workers)
		for b := 0; b < workers; b++ {
			arch, err := progqoi.Open(context.Background(), fmt.Sprintf("%s/block%d", bases[0], b),
				progqoi.WithEndpoints(bases[1:]...))
			if err != nil {
				log.Fatal(err)
			}
			remotes[b] = arch
		}
	}

	link := netsim.DefaultGlobusLink
	link.BandwidthBps = float64(rawBytes) / 11.7 // calibrate: raw baseline ≈ 11.7 s
	rawTime := netsim.RawTransferTime(rawBytes, workers, link)
	fmt.Printf("raw transfer baseline: %.2f MB in %.2f s over %d streams\n\n",
		float64(rawBytes)/1e6, rawTime.Seconds(), workers)

	vtot := progqoi.TotalVelocity(0, 1, 2)
	hdr := fmt.Sprintf("%-10s  %-14s  %-14s  %-8s", "rel tol", "sim wire MB", "transfer (s)", "speedup")
	if remotes != nil {
		hdr += fmt.Sprintf("  %-14s  %s", "real wire MB", "cache hits")
	}
	fmt.Println(hdr)
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		res, err := netsim.Run(workers, workers, link, func(b int, rec *netsim.Recorder) error {
			sess, err := archives[b].Open(progqoi.WithFetchObserver(rec.Observe))
			if err != nil {
				return err
			}
			return retrieveBlock(sess, vtot, rel, blocks[b])
		})
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%-10.0e  %-14.2f  %-14.2f  %-8s",
			rel, float64(res.TotalBytes)/1e6, res.Makespan.Seconds(),
			fmt.Sprintf("%.2fx", rawTime.Seconds()/res.Makespan.Seconds()))
		if remotes != nil {
			var wire, hits int64
			for b := 0; b < workers; b++ {
				before := remotes[b].RemoteStats()
				sess, err := remotes[b].Open()
				if err != nil {
					log.Fatal(err)
				}
				if err := retrieveBlock(sess, vtot, rel, blocks[b]); err != nil {
					log.Fatal(err)
				}
				after := remotes[b].RemoteStats()
				wire += after.WireBytes - before.WireBytes
				hits += after.CacheHits - before.CacheHits
			}
			row += fmt.Sprintf("  %-14.2f  %d", float64(wire)/1e6, hits)
		}
		fmt.Println(row)
	}
	if remotes != nil {
		fmt.Println("\nreal wire MB < sim wire MB once tolerances tighten: each fresh remote")
		fmt.Println("session re-requests earlier fragments, but the shared client cache")
		fmt.Println("serves them locally — only the marginal fragments cross the wire.")
	}
}

// retrieveBlock asks one session for VTOT at the given relative tolerance.
func retrieveBlock(sess *progqoi.Session, vtot progqoi.QoI, rel float64, fields [][]float64) error {
	ranges := progqoi.QoIRanges([]progqoi.QoI{vtot}, fields)
	if ranges[0] == 0 {
		ranges[0] = 1
	}
	_, err := sess.Do(context.Background(), progqoi.Request{Targets: []progqoi.Target{
		{QoI: vtot, Tolerance: rel, Relative: true, Range: ranges[0]},
	}})
	return err
}

// serveSelf writes every block archive into a MemStore and serves it with
// the real fragment service from n loopback nodes (one store, n servers —
// the same shape as n progqoid daemons over one archive directory),
// returning the base URLs.
func serveSelf(archives []*progqoi.Archive, n int) ([]string, error) {
	ctx := context.Background()
	st := storage.NewMemStore()
	for b, arch := range archives {
		if err := storage.WriteArchive(ctx, st, fmt.Sprintf("block%d", b), arch.Variables()); err != nil {
			return nil, err
		}
	}
	bases := make([]string, n)
	for i := range bases {
		srv, err := server.New(ctx, st, server.Options{})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() {
			if err := http.Serve(ln, srv); err != nil && !strings.Contains(err.Error(), "use of closed") {
				log.Print(err)
			}
		}()
		bases[i] = "http://" + ln.Addr().String()
	}
	return bases, nil
}
