package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"progqoi/internal/obs"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer's public entry point. Parent is the span that caused it (-1 for
// an op's root) and Op the operation both belong to.
type span struct {
	Name       string
	Parent     int
	Op         int
	Start, End time.Duration // offsets from the recorder's origin; End < 0 while open
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: begin returns -1 and end ignores it, so the measured phase
// runs the same op code without recording anything.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: -1})
	return len(r.spans) - 1
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end
	return end - r.spans[id].Start
}

// add records a finished span whose times were taken elsewhere: the spans
// Session.Do already emits through WithTrace are read back and filed under
// the benchmark's own span of that call. The interval is clamped to the
// parent's so imported spans always nest.
func (r *recorder) add(name string, parent, op int, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent >= 0 {
		p := r.spans[parent]
		start = clampDur(start, p.Start, p.End)
		end = clampDur(end, start, p.End)
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: end})
	return len(r.spans) - 1
}

func clampDur(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// check verifies every span is closed and lies inside its parent.
func (r *recorder) check() error {
	spans := r.snapshot()
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never closed", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %q names parent %d opened after it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] escapes parent %q [%v,%v]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d %q belongs to op %d, parent %q to op %d", i, s.Name, s.Op, p.Name, p.Op)
		}
	}
	return nil
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other).
func selfTimes(spans []span) []time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - unionLength(children[i])
	}
	return out
}

type interval struct{ lo, hi time.Duration }

// unionLength is the total length covered by any of the intervals.
func unionLength(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, end time.Duration
	first := true
	for _, v := range iv {
		switch {
		case first || v.lo > end:
			total += v.hi - v.lo
			end, first = v.hi, false
		case v.hi > end:
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeChrome emits the spans as Chrome trace_event JSON, the format
// obs.Trace.WriteChromeTrace writes: one lane per op, self time in args.
func (r *recorder) writeChrome(w io.Writer) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Op + 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": us(self[i])},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// doCategories are the retrieval phases Session.Do records through
// WithTrace, in the order the progqoi.do_* metrics report them. The http
// and store spans a transport adds nest inside fetch and are attributed to
// it.
var doCategories = []string{obs.CatPlan, obs.CatFetch, obs.CatDecode, obs.CatCommit, obs.CatEstimate}

// attributeDo splits the wall time of the trace's Do calls between the
// phase categories. Variables decode and commit concurrently, so summing
// span durations would count the same instant several times; each instant
// is instead shared equally between the categories active in it. It
// returns seconds per category, the total Do wall time, and the part no
// phase span covers.
func attributeDo(spans []obs.Span) (cat map[string]float64, wall, uncovered float64) {
	type edge struct {
		at    time.Duration
		cat   int // index into doCategories, -1 for the Do umbrella
		delta int
	}
	var edges []edge
	index := map[string]int{}
	for i, c := range doCategories {
		index[c] = i
	}
	for _, s := range spans {
		ci, ok := index[s.Cat]
		if s.Cat == obs.CatDo {
			ci, ok = -1, true
		}
		if !ok || s.Dur <= 0 {
			continue
		}
		edges = append(edges, edge{s.Start, ci, 1}, edge{s.Start + s.Dur, ci, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	active := make([]int, len(doCategories))
	totals := make([]float64, len(doCategories))
	inDo := 0
	var prev time.Duration
	for _, e := range edges {
		if dt := (e.at - prev).Seconds(); inDo > 0 && dt > 0 {
			wall += dt
			n := 0
			for _, a := range active {
				if a > 0 {
					n++
				}
			}
			if n == 0 {
				uncovered += dt
			}
			for i, a := range active {
				if a > 0 {
					totals[i] += dt / float64(n)
				}
			}
		}
		prev = e.at
		if e.cat < 0 {
			inDo += e.delta
		} else {
			active[e.cat] += e.delta
		}
	}
	cat = map[string]float64{}
	for i, c := range doCategories {
		cat[c] = totals[i]
	}
	return cat, wall, uncovered
}

// importDoSpans files the program's own spans under the benchmark's span
// of the Do call that emitted them. offset converts trace time to recorder
// time (the trace's origin is the instant NewTrace ran).
func (r *recorder) importDoSpans(spans []obs.Span, offset time.Duration, doSpans []int, op int) {
	r.mu.Lock()
	parents := make([]span, len(doSpans))
	for i, id := range doSpans {
		parents[i] = r.spans[id]
	}
	r.mu.Unlock()
	for _, s := range spans {
		if s.Cat == obs.CatDo {
			continue
		}
		start, end := s.Start+offset, s.Start+s.Dur+offset
		mid := (start + end) / 2
		for i, p := range parents {
			if mid >= p.Start && mid <= p.End {
				r.add("progqoi."+s.Cat+" "+s.Name, doSpans[i], op, start, end)
				break
			}
		}
	}
}
