package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around a public function. Spans of one request share req; parent is
// the index of the span that caused this one, or -1.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int
	req        int64
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced run calls the same code paths and
// pays one nil check per boundary.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return now - r.spans[id].start
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	name  string
	self  time.Duration
	total time.Duration
	count int
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval covered by its children; the
// children may overlap one another (concurrent requests under one
// parent), so the covered part is the length of their union, clipped
// to the parent's interval.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		dur := s.end - s.start
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			if cs.end < 0 {
				continue
			}
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
			order = append(order, s.name)
		}
		lt.self += dur - unionLength(ivs)
		lt.total += dur
		lt.count++
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// unionLength returns the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// maxTraceRequests bounds the requests whose spans the trace-event file
// keeps; the self-time table counts every span.
const maxTraceRequests = 2000

// writeChromeTrace writes spans as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load): one complete event per span, one
// thread lane per request id. Spans outside any request are all kept,
// request spans only for the first maxTraceRequests requests.
func writeChromeTrace(path string, spans []span) error {
	type args struct {
		ID     int   `json:"id"`
		Parent int   `json:"parent"`
		Req    int64 `json:"req"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int64   `json:"tid"`
		Args args    `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.end < 0 || s.req > maxTraceRequests {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: args{i, s.parent, s.req},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
