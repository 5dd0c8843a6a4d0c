package main

// Spans recorded by the benchmark's own code around each call into a
// layer's public function. Spans stay in memory and are written out once
// the traced replay ends; with an execution trace requested, every span is
// also a runtime/trace region inside one task per operation, so
// `go tool trace` shows the layers.

import (
	"context"
	"encoding/json"
	"os"
	"runtime/trace"
	"sort"
	"time"
)

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`  // 0 for a root span
	Request int    `json:"request"` // operation sequence index; -1 during set-up
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the replay began
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans when on; when off every call runs bare, which is
// the untraced replay the overhead is measured against.
type tracer struct {
	on     bool
	exec   bool // also emit runtime/trace tasks and regions
	origin time.Time
	spans  []span
}

func newTracer(on, exec bool) *tracer {
	return &tracer{on: on, exec: exec, origin: time.Now()}
}

// scope is the parent context of the spans an operation opens.
type scope struct {
	ctx     context.Context
	parent  int
	request int
}

// begin opens the root span of one operation (request id req).
func (t *tracer) begin(ctx context.Context, req int) (scope, func()) {
	if !t.on {
		return scope{ctx: ctx, request: req}, func() {}
	}
	var task *trace.Task
	if t.exec {
		ctx, task = trace.NewTask(ctx, "op")
	}
	id := t.open(0, req, "op")
	return scope{ctx: ctx, parent: id, request: req}, func() {
		t.close(id)
		if task != nil {
			task.End()
		}
	}
}

// do runs fn inside a span named name, a child of sc.
func (t *tracer) do(sc scope, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id := t.open(sc.parent, sc.request, name)
	if t.exec {
		trace.WithRegion(sc.ctx, name, fn)
	} else {
		fn()
	}
	t.close(id)
}

func (t *tracer) open(parent, req int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: req, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	SelfShare float64 `json:"self_share"`
	durations []time.Duration
}

// summarize computes per-name totals and self times: a span's self time is
// its duration minus the time its children cover (children of one span
// run sequentially, so they never overlap).
func (t *tracer) summarize() map[string]*layerTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]*layerTime{}
	var selfTotal float64
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		d := s.EndNS - s.StartNS
		lt.Count++
		lt.TotalMS += float64(d) / 1e6
		self := float64(d-child[s.ID]) / 1e6
		lt.SelfMS += self
		selfTotal += self
		lt.durations = append(lt.durations, time.Duration(d))
	}
	for _, lt := range out {
		if selfTotal > 0 {
			lt.SelfShare = lt.SelfMS / selfTotal
		}
	}
	return out
}

// writeSpans writes the span file: provenance, every span, and the
// per-layer self-time summary sorted by self time.
func (t *tracer) writeSpans(path string, prov provenance) error {
	sum := t.summarize()
	list := make([]*layerTime, 0, len(sum))
	for _, lt := range sum {
		list = append(list, lt)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].SelfMS > list[j].SelfMS })
	b, err := json.Marshal(struct {
		Provenance provenance   `json:"provenance"`
		Summary    []*layerTime `json:"summary"`
		Spans      []span       `json:"spans"`
	}{prov, list, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
