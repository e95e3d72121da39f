package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"progqoi/internal/core"
	"progqoi/internal/obs"
	"progqoi/internal/progressive"
	"progqoi/internal/server"
)

// readAheadTimeout bounds one background read-ahead fetch; nothing waits on
// it, so a stuck speculative request must time itself out.
const readAheadTimeout = 2 * time.Minute

// Remote is an opened remote dataset: the retrieval metadata of every
// variable (prefix bounds, schedules, zero masks, ranges) held locally,
// fragment payloads fetched lazily per retrieval iteration. One Remote can
// serve many concurrent sessions; they share the client's cache and
// coalesce duplicate fetches.
type Remote struct {
	c       *Client
	dataset string
	vars    []*core.Variable // meta-only: fragment payloads are placeholders
	stored  int64

	specWG sync.WaitGroup // in-flight read-ahead fetches
}

// WaitReadAhead blocks until every in-flight background read-ahead fetch
// has finished — for orderly shutdown and deterministic tests; sessions
// never need it.
func (r *Remote) WaitReadAhead() { r.specWG.Wait() }

// Close waits for in-flight read-ahead fetches and stops the underlying
// client's background topology refresher: a Remote owns the client Open
// dialled for it.
func (r *Remote) Close() {
	r.WaitReadAhead()
	r.c.Close()
}

// Open dials baseURL and opens the named dataset with fresh client
// options; ctx scopes the metadata round trips (and, with
// Options.DiscoverPeers, one best-effort topology fetch).
func Open(ctx context.Context, baseURL, dataset string, opt Options) (*Remote, error) {
	if opt.DiscoverPeers {
		// Ask the seed node for its topology and fold the routable nodes
		// (alive members on an elastic cluster, static peers otherwise)
		// into the endpoint set. Best-effort: a node without the route
		// (or an unreachable one — the configured endpoints may still
		// cover for it) is treated as advertising nothing.
		seed, err := New(baseURL, Options{
			HTTPClient: opt.HTTPClient,
			MaxRetries: opt.MaxRetries,
			CacheBytes: -1,
			Token:      opt.Token,
			clock:      opt.clock,
		})
		if err != nil {
			return nil, err
		}
		if info, err := seed.ClusterInfo(ctx); err == nil {
			opt.Endpoints = append(append([]string(nil), opt.Endpoints...), routableFrom(info, baseURL)...)
		}
		seed.Close()
	}
	c, err := New(baseURL, opt)
	if err != nil {
		return nil, err
	}
	rem, err := c.openDataset(ctx, dataset)
	if err != nil {
		c.Close()
		return nil, err
	}
	return rem, nil
}

// openDataset fetches the dataset's index and metadata blob and returns a
// session factory for it. ctx scopes the two metadata fetches only;
// sessions opened later carry their own per-request contexts.
func (c *Client) openDataset(ctx context.Context, dataset string) (*Remote, error) {
	idx, err := c.Index(ctx, dataset)
	if err != nil {
		return nil, err
	}
	blob, err := c.do(ctx, "GET", "/v1/d/"+dataset+"/meta", nil, "")
	if err != nil {
		return nil, err
	}
	vars, err := server.DecodeMeta(blob)
	if err != nil {
		return nil, err
	}
	if len(vars) != len(idx.Variables) {
		return nil, fmt.Errorf("client: dataset %s: meta has %d variables, index %d", dataset, len(vars), len(idx.Variables))
	}
	var stored int64
	for i, v := range vars {
		iv := idx.Variables[i]
		if v.Name != iv.Name {
			return nil, fmt.Errorf("client: dataset %s: meta variable %q != index %q", dataset, v.Name, iv.Name)
		}
		if len(v.Ref.Fragments) != len(iv.FragmentSizes) {
			return nil, fmt.Errorf("client: dataset %s: %s has %d fragments in meta, %d in index",
				dataset, v.Name, len(v.Ref.Fragments), len(iv.FragmentSizes))
		}
		stored += iv.TotalBytes
	}
	return &Remote{c: c, dataset: dataset, vars: vars, stored: stored}, nil
}

// Client returns the underlying client (shared cache, wire stats).
func (r *Remote) Client() *Client { return r.c }

// FieldNames returns the dataset's variable names in order.
func (r *Remote) FieldNames() []string {
	out := make([]string, len(r.vars))
	for i, v := range r.vars {
		out[i] = v.Name
	}
	return out
}

// Dims returns the dataset's grid shape.
func (r *Remote) Dims() []int {
	if len(r.vars) == 0 {
		return nil
	}
	return append([]int(nil), r.vars[0].Ref.Dims...)
}

// StoredBytes returns the total fragment bytes held at the storage site.
func (r *Remote) StoredBytes() int64 { return r.stored }

// NewSession opens a QoI retrieval session whose fragment fetches travel
// the wire in one batched request per retrieval iteration. fetch (optional)
// observes every ingested fragment exactly as in the local path, so byte
// accounting (e.g. a netsim.Recorder) works identically.
//
// With Options.ReadAhead > 0 the prefetch hook pipelines the wire with the
// decoder: once iteration N's batch is installed it launches a background
// fetch of the fragments a tightening iteration would request next, so the
// network works on batch N+1 while the worker pool decodes batch N. The
// speculative payloads land in the client's shared cache; iteration N+1
// either hits the cache or coalesces onto the still-in-flight fetch.
func (r *Remote) NewSession(fetch progressive.FetchFunc, cfg core.Config) (*core.Retriever, error) {
	// The session's Workers budget bounds the concurrent per-shard
	// sub-batches too, so wire fan-out never exceeds compute fan-out.
	workers := cfg.Workers
	return core.NewLazyRetriever(r.vars, cfg, fetch, func(ctx context.Context, want [][]int, install func(v, frag int, payload []byte)) error {
		wants := map[string][]int{}
		for vi, idxs := range want {
			if len(idxs) > 0 {
				wants[r.vars[vi].Name] = idxs
			}
		}
		got, err := r.c.FragmentsWorkers(ctx, r.dataset, wants, workers)
		if err != nil {
			return err
		}
		for vi, v := range r.vars {
			for fi, payload := range got[v.Name] {
				install(vi, fi, payload)
			}
		}
		r.readAhead(ctx, want)
		return nil
	}, r.c.wireBytes.Load)
}

// readAhead launches the speculative fetch of the fragments just past the
// ones each variable's plan just fetched (the contiguous-prefix
// representations always request next fragments in order, so the
// prediction is exact for PMGARD and PSZ3-Delta, and nothing past the plan
// is held yet). It returns immediately; errors are swallowed — a failed
// speculation costs nothing but the attempt.
func (r *Remote) readAhead(ctx context.Context, want [][]int) {
	ra := r.c.opts.ReadAhead
	if ra <= 0 {
		return
	}
	spec := map[string][]int{}
	var count int64
	for vi, idxs := range want {
		if len(idxs) == 0 {
			continue
		}
		last := idxs[0]
		for _, fi := range idxs {
			if fi > last {
				last = fi
			}
		}
		v := r.vars[vi]
		for fi := last + 1; fi <= last+ra && fi < len(v.Ref.Fragments); fi++ {
			spec[v.Name] = append(spec[v.Name], fi)
			count++
		}
	}
	if len(spec) == 0 {
		return
	}
	r.c.speculated.Add(count)
	r.specWG.Add(1)
	// Detach from the iteration's deadline but keep its trace and request
	// ID: speculative fetches increment WireBytes, so they must also record
	// fetch spans or the trace's byte reconciliation would leak.
	tr, rid := obs.TraceFrom(ctx), obs.RequestIDFrom(ctx)
	go func() {
		defer r.specWG.Done()
		//progqoivet:allow ctxflow -- speculative read-ahead must outlive the iteration that spawned it
		sctx, cancel := context.WithTimeout(context.Background(), readAheadTimeout)
		defer cancel()
		sctx = obs.ContextWithRequestID(obs.ContextWithTrace(sctx, tr), rid)
		r.c.Fragments(sctx, r.dataset, spec) //nolint:errcheck // speculative
	}()
}
