package main

// metrics.go is the benchmark's vocabulary: the four workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric and workload each one is predicted to
// move. BENCHMARK.json at the repository root carries the same names;
// bench_test.go holds the two in step.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name    string
	Why     string
	Clients int     // closed-loop client goroutines
	TailPct float64 // op_tail_ms percentile: the highest with ≥10 samples beyond it in one run
}

var workloads = []workloadDef{
	{"pack-nyx", "Producer path, the only one that writes: mgard decompose, bitplane slicing, DEFLATE and archive write do all the work, so an encode-side gain that costs the decode side shows against the other three.", 1, 75},
	{"do-local-ge", "Consumer path with no transport: decode, recompose and six-QoI estimation dominate and every fetch layer is idle, so a wire- or store-side optimisation must show no change here.", 1, 80},
	{"do-cluster3-s3d", "Serve path: many small fragments batched over three in-process nodes that share two cores with two clients, so sharding, auth, hot cache, framing and gzip are about half of each op.", 2, 95},
	{"do-objstore-s3d", "Stateless tier: the bytes and decode of do-cluster3-s3d fetched as hundreds of signed ranged GETs per op, so per-request cost (SigV4, header parsing, ETag pinning) dominates.", 1, 90},
}

// metricDef is one end-to-end metric: what a producer, a consumer or an
// operator waits for or pays. Bound is the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	What               string
	Exact              bool // a count: two runs with one seed must agree exactly
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median wall time of the set-up phase over the rounds, so work moved out of the op shows", false},
	{"ops_per_s", "1/s", "higher", 0.25, "clients x correct ops / summed op latency, median over the rounds: closed-loop throughput with the untimed oracle taken out", false},
	{"op_p50_ms", "ms", "lower", 0.25, "median op latency of a round, median over the rounds", false},
	{"op_tail_ms", "ms", "lower", 0.25, "op_p50_ms x the workload's tail percentile of (op latency / its round's median), pooled over the rounds", false},
	{"bytes_ratio", "ratio", "lower", 0.05, "pack: archive bytes / raw bytes; do-*: fragment bytes retrieved over the ladder / raw dataset bytes; totals over the rounds", true},
	{"alloc_mb_per_op", "MB", "lower", 0.10, "process-wide TotalAlloc delta over the measured phases / ops, in-process servers included", false},
}

// layerDef is one per-layer metric from the traced run. Moves and On are
// the prediction: which end-to-end metrics it should move, on which
// workloads; on every other workload the prediction is no change. A layer
// metric reads 0 on a workload whose ops never enter that layer.
type layerDef struct {
	Name, Unit, Better string
	How                string
	Moves              []string
	On                 []string
}

var (
	allDo   = []string{"do-local-ge", "do-cluster3-s3d", "do-objstore-s3d"}
	onPack  = []string{"pack-nyx"}
	onLocal = []string{"do-local-ge"}
	onClust = []string{"do-cluster3-s3d"}
	onObj   = []string{"do-objstore-s3d"}
	remote  = []string{"do-cluster3-s3d", "do-objstore-s3d"}
	onAll   = []string{"pack-nyx", "do-local-ge", "do-cluster3-s3d", "do-objstore-s3d"}
)

var perLayer = []layerDef{
	{"core.refactor_s", "s", "lower", "core.RefactorVariables, one field at a time, inside the traced op", []string{"ops_per_s"}, onPack},
	{"progressive.refactor_s", "s", "lower", "progressive.Refactor per field, replayed", []string{"ops_per_s"}, onPack},
	{"mgard.decompose_s", "s", "lower", "mgard.Decompose per field, replayed", []string{"ops_per_s"}, onPack},
	{"bitplane.encode_s", "s", "lower", "bitplane.EncodeAll on the decomposition's groups", []string{"ops_per_s"}, onPack},
	{"bitplane.encode_alloc_mb", "MB", "lower", "TotalAlloc delta across the EncodeAll calls", []string{"alloc_mb_per_op"}, onPack},
	{"encoding.deflate_s", "s", "lower", "encoding.Deflate of every produced fragment's raw bitmap at bitplane's level", []string{"ops_per_s"}, onPack},
	{"encoding.deflate_calls", "count", "lower", "Deflate calls per op (one per stored fragment)", []string{"ops_per_s"}, onPack},
	{"encoding.deflate_alloc_mb", "MB", "lower", "TotalAlloc delta across those Deflate calls", []string{"alloc_mb_per_op"}, onPack},
	{"encoding.deflate_ratio", "ratio", "lower", "Deflate bytes out / bytes in", []string{"bytes_ratio"}, onPack},
	{"storage.write_s", "s", "lower", "ArchiveWriter.WriteVariable + Close into the DirStore, inside the traced op", []string{"ops_per_s"}, onPack},
	{"storage.write_mb", "MB", "lower", "variable-blob bytes written per op", []string{"bytes_ratio"}, onPack},
	{"core.pack_speedup_workers", "ratio", "higher", "op rate at default workers / at Workers: 1", []string{"ops_per_s"}, onPack},

	{"storage.open_s", "s", "lower", "progqoi.Open(file://...)", []string{"op_p50_ms"}, onLocal},
	{"core.iterations", "count", "lower", "sum of Result.Iterations over the ladder", []string{"op_p50_ms", "bytes_ratio"}, allDo},
	{"core.fragments", "count", "lower", "fragments seen by WithFetchObserver over the ladder", []string{"op_p50_ms", "bytes_ratio"}, allDo},
	{"bitplane.inflate_s", "s", "lower", "Block.RawBitmap over every fragment the op consumed", []string{"op_p50_ms"}, onLocal},
	{"progressive.advance_s", "s", "lower", "fresh progressive.NewReader per involved variable, one Advance to the op's final bound", []string{"op_p50_ms"}, onLocal},
	{"progressive.advance_alloc_mb", "MB", "lower", "TotalAlloc delta across those Advance calls", []string{"alloc_mb_per_op"}, onLocal},
	{"progressive.data_s", "s", "lower", "Reader.Data() per involved variable: one recompose", []string{"op_p50_ms"}, onLocal},
	{"qoi.bound_s", "s", "lower", "one pass of qoi.TheoremBound per target over every point at the final bounds", []string{"op_p50_ms"}, onLocal},
	{"core.do_speedup_workers", "ratio", "higher", "op rate at default workers / with WithWorkers(1)", []string{"ops_per_s"}, onLocal},
	{"progqoi.first_do_s", "s", "lower", "the 1e-1 rung alone: time to the first certified answer", []string{"op_p50_ms"}, allDo},
	{"progqoi.do_plan_s", "s", "lower", "wall time of the ladder's Do calls attributed to plan spans (WithTrace); a local session has none", []string{"op_p50_ms"}, remote},
	{"progqoi.do_fetch_s", "s", "lower", "same, fetch spans", []string{"op_p50_ms"}, remote},
	{"progqoi.do_decode_s", "s", "lower", "same, decode spans", []string{"op_p50_ms"}, allDo},
	{"progqoi.do_commit_s", "s", "lower", "same, commit spans", []string{"op_p50_ms"}, allDo},
	{"progqoi.do_estimate_s", "s", "lower", "same, estimate spans", []string{"op_p50_ms"}, allDo},
	{"progqoi.do_residual_frac", "ratio", "lower", "share of the Do wall time no phase span covers", []string{"op_p50_ms"}, allDo},
	{"progqoi.local_ladder_s", "s", "lower", "the same ladder on the in-memory reference archive; op minus this is transport overhead", nil, nil},

	{"client.open_s", "s", "lower", "progqoi.Open(http://...): index + meta", []string{"op_p50_ms"}, onClust},
	{"client.wire_requests", "count", "lower", "RemoteStats.WireRequests per op", []string{"op_p50_ms"}, onClust},
	{"client.wire_mb", "MB", "lower", "RemoteStats.WireBytes per op", []string{"op_p50_ms"}, onClust},
	{"client.fragments", "count", "lower", "RemoteStats.FragmentsFetched per op", []string{"op_p50_ms"}, onClust},
	{"client.retried", "count", "lower", "failovers + retry passes + 429s per op, expected 0", []string{"op_p50_ms"}, onClust},
	{"client.warm_ladder_s", "s", "lower", "a second session's ladder on one Archive opened with the default cache", nil, nil},
	{"client.cache_hit_ratio", "ratio", "higher", "cache hits / fragment lookups of that second session", nil, nil},
	{"server.frags_handler_s", "s", "lower", "the op's POST /v1/d/s3d/frags bodies replayed into Server.ServeHTTP, identity encoding", []string{"ops_per_s", "op_tail_ms"}, onClust},
	{"server.frags_handler_gzip_s", "s", "lower", "the same replay with Accept-Encoding: gzip", []string{"ops_per_s", "op_tail_ms"}, onClust},
	{"server.gzip_ratio", "ratio", "lower", "gzip response bytes / identity response bytes", []string{"ops_per_s", "op_tail_ms"}, onClust},
	{"server.frags_http_s", "s", "lower", "the same requests over loopback with a plain net/http client", []string{"op_p50_ms"}, onClust},
	{"server.index_s", "s", "lower", "GET index + meta over loopback with a plain net/http client", []string{"op_p50_ms"}, onClust},
	{"server.hotcache_hit_ratio", "ratio", "higher", "Server.Stats() hot-cache hits / lookups over the untraced phase, all nodes", []string{"ops_per_s"}, onClust},
	{"server.requests", "count", "lower", "Server.Stats().Requests delta per op over the untraced phase, all nodes", []string{"ops_per_s"}, onClust},

	{"storage.open_ranged_s", "s", "lower", "progqoi.Open(s3://...)", []string{"op_p50_ms"}, onObj},
	{"objstore.cold_fetches", "count", "lower", "Archive.StoreStats().ColdFetches over the ladder", []string{"op_p50_ms"}, onObj},
	{"objstore.cold_mb", "MB", "lower", "Archive.StoreStats().ColdFetchBytes over the ladder", []string{"op_p50_ms"}, onObj},
	{"objstore.cold_fetch_s", "s", "lower", "Archive.StoreStats().ColdFetchSeconds over the ladder", []string{"op_p50_ms"}, onObj},
	{"objstore.getrange_us", "us", "lower", "the op's byte ranges replayed through objstore.Store.GetRange, cache off: time per call", []string{"op_p50_ms"}, onObj},
	{"objstore.getrange_mallocs", "count", "lower", "mallocs per call of that replay, in-process bucket included", []string{"alloc_mb_per_op"}, onObj},

	{"runtime.mallocs_per_op", "count", "lower", "MemStats.Mallocs delta / ops over the untraced phase", []string{"alloc_mb_per_op"}, onAll},
	{"obs.trace_overhead_frac", "ratio", "lower", "(traced op median - untraced op median) / untraced: the cost of the instrument", nil, nil},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
