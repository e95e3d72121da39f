// Package netsim models the paper's remote-retrieval experiment (§VI-D):
// refactored data lives at a storage site, a compute site requests QoIs,
// and fragments cross a wide-area link (the paper uses Globus between the
// MCC and Anvil clusters; 96 workers each own one data block).
//
// The link is simulated in virtual time — bandwidth, per-request latency,
// and fair sharing among concurrent streams — while the per-block QoI
// retrieval work itself runs for real on goroutine workers. This preserves
// exactly what Fig. 9 measures: transfer time driven by the byte counts the
// QoI-preserving pipeline actually retrieves, compared against shipping the
// raw data.
package netsim

import (
	"fmt"
	"time"

	"progqoi/internal/par"
)

// Link describes a wide-area link.
type Link struct {
	// BandwidthBps is the aggregate bandwidth in bytes per second.
	BandwidthBps float64
	// LatencySec is the per-request round-trip latency in seconds.
	LatencySec float64
}

// DefaultGlobusLink is calibrated so the paper's raw-data baseline holds:
// 4.67 GB in ≈11.7 s ⇒ ≈0.4 GB/s effective aggregate bandwidth.
var DefaultGlobusLink = Link{BandwidthBps: 0.4e9, LatencySec: 0.05}

// TransferTime returns the virtual time to move one stream of n bytes over
// the link when `streams` streams share it fairly. One logical request pays
// one latency.
func (l Link) TransferTime(n int64, streams int) time.Duration {
	if streams < 1 {
		streams = 1
	}
	if n < 0 {
		n = 0
	}
	per := l.BandwidthBps / float64(streams)
	sec := l.LatencySec + float64(n)/per
	return time.Duration(sec * float64(time.Second))
}

// BlockResult is one worker's outcome.
type BlockResult struct {
	Block     int
	Bytes     int64         // fragment bytes pulled over the link
	Requests  int           // number of link requests (latency charges)
	WorkTime  time.Duration // real CPU time spent reconstructing/estimating
	LinkTime  time.Duration // virtual time on the wire
	TotalTime time.Duration // LinkTime + WorkTime
	Err       error
}

// BlockFunc performs the retrieval work of one block. It receives a
// Session-scoped fetch recorder to install as the progressive.FetchFunc of
// its readers, and returns the error that ends its retrieval, if any; Run
// charges the link for the bytes the recorder saw.
type BlockFunc func(block int, rec *Recorder) error

// Recorder tallies the fragment fetches of one block's retrieval. It is
// safe for use from the single worker goroutine that owns the block.
type Recorder struct {
	bytes    int64
	requests int
}

// Observe implements the progressive.FetchFunc signature.
func (r *Recorder) Observe(fragIndex int, size int64) {
	r.bytes += size
	r.requests++
}

// Bytes returns the recorded byte total.
func (r *Recorder) Bytes() int64 { return r.bytes }

// RunResult aggregates a parallel transfer experiment.
type RunResult struct {
	Blocks []BlockResult
	// TotalBytes is the sum over blocks.
	TotalBytes int64
	// Makespan is the virtual completion time: the max over workers of
	// (work + wire) time, with the link shared by all active workers.
	Makespan time.Duration
}

// Run executes fn for blocks 0..nBlocks-1 on a par.Budget of `workers`
// workers and produces per-block and aggregate timings over the link.
// Fragments fetched by a block are batched into one logical transfer per
// block (Globus-style bulk movement), so each block pays one latency plus
// its bytes at the fair bandwidth share.
func Run(nBlocks, workers int, link Link, fn BlockFunc) (*RunResult, error) {
	if nBlocks <= 0 {
		return nil, fmt.Errorf("netsim: nBlocks must be positive, got %d", nBlocks)
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > nBlocks {
		workers = nBlocks
	}
	results := make([]BlockResult, nBlocks)
	par.New(workers).For(nBlocks, func(_, b int) bool {
		rec := &Recorder{}
		start := time.Now()
		err := fn(b, rec)
		results[b] = BlockResult{
			Block:    b,
			Bytes:    rec.bytes,
			Requests: rec.requests,
			WorkTime: time.Since(start),
			Err:      err,
		}
		return true
	})

	out := &RunResult{Blocks: results}
	for i := range results {
		if results[i].Err != nil {
			return nil, fmt.Errorf("netsim: block %d: %w", i, results[i].Err)
		}
		out.TotalBytes += results[i].Bytes
	}
	// Virtual wire model: all `workers` streams are concurrently active (the
	// steady-state of a balanced run), each block pays one latency and ships
	// its bytes at the fair share. Workers process ceil(nBlocks/workers)
	// blocks sequentially; makespan is the max per-worker sum.
	perWorker := make([]time.Duration, workers)
	for i := range results {
		w := i % workers
		lt := link.TransferTime(results[i].Bytes, workers)
		results[i].LinkTime = lt
		results[i].TotalTime = lt + results[i].WorkTime
		perWorker[w] += results[i].TotalTime
	}
	for _, t := range perWorker {
		if t > out.Makespan {
			out.Makespan = t
		}
	}
	return out, nil
}

// RawTransferTime returns the virtual time to ship `bytes` of unreduced
// data over the link using `workers` balanced streams — the dashed baseline
// of Fig. 9.
func RawTransferTime(bytes int64, workers int, link Link) time.Duration {
	if workers < 1 {
		workers = 1
	}
	per := (bytes + int64(workers) - 1) / int64(workers)
	return link.TransferTime(per, workers)
}
