package main

// Tracing from the benchmark's own wrappers: spans are recorded around
// calls into each layer's public surface (the load generator's request,
// an http.Handler around the server, a sling.Querier around the backend,
// shard.Clients under the router), so no program code changes. Spans of
// one request share its root span's ID; they are kept in memory and
// written out when the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sling"
	"sling/internal/shard"
)

type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanRef struct{ req, id uint64 }

type spanKey struct{}

// traceHeader carries "<req> <parent>" from the generator to the handler.
const traceHeader = "X-Perfbench-Trace"

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the one in ctx (a new request when there is
// none) and returns the context carrying it plus the func that ends it.
// With tracing off it returns ctx unchanged and a no-op.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	id := t.ids.Add(1)
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	ref := spanRef{req: parent.req, id: id}
	if ref.req == 0 {
		ref.req = id
	}
	start := time.Since(t.epoch).Nanoseconds()
	return context.WithValue(ctx, spanKey{}, ref), func() {
		s := span{Req: ref.req, ID: id, Parent: parent.id, Name: name, Start: start, End: time.Since(t.epoch).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// inject stamps the span in ctx onto an outgoing request.
func inject(ctx context.Context, req *http.Request) {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		req.Header.Set(traceHeader, fmt.Sprintf("%d %d", ref.req, ref.id))
	}
}

// traceHandler wraps the server so each request gets a "handler" span
// under the generator's span.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ref spanRef
		if v := r.Header.Get(traceHeader); v != "" {
			fmt.Sscanf(v, "%d %d", &ref.req, &ref.id)
		}
		ctx := r.Context()
		if ref.req != 0 {
			ctx = context.WithValue(ctx, spanKey{}, ref)
		}
		ctx, end := t.begin(ctx, "handler"+r.URL.Path)
		h.ServeHTTP(w, r.WithContext(ctx))
		end()
	})
}

// traceQuerier wraps a backend with a "querier" span per call.
type traceQuerier struct {
	sling.Querier
	t *tracer
}

func (q traceQuerier) SimRank(ctx context.Context, u, v sling.NodeID) (float64, error) {
	ctx, end := q.t.begin(ctx, "querier")
	defer end()
	return q.Querier.SimRank(ctx, u, v)
}

func (q traceQuerier) SingleSource(ctx context.Context, u sling.NodeID, out []float64) ([]float64, error) {
	ctx, end := q.t.begin(ctx, "querier")
	defer end()
	return q.Querier.SingleSource(ctx, u, out)
}

func (q traceQuerier) SingleSourceBatch(ctx context.Context, us []sling.NodeID) ([][]float64, error) {
	ctx, end := q.t.begin(ctx, "querier")
	defer end()
	return q.Querier.SingleSourceBatch(ctx, us)
}

func (q traceQuerier) TopK(ctx context.Context, u sling.NodeID, k int) ([]sling.Scored, error) {
	ctx, end := q.t.begin(ctx, "querier")
	defer end()
	return q.Querier.TopK(ctx, u, k)
}

func (q traceQuerier) SourceTop(ctx context.Context, u sling.NodeID, limit int) ([]sling.Scored, error) {
	ctx, end := q.t.begin(ctx, "querier")
	defer end()
	return q.Querier.SourceTop(ctx, u, limit)
}

// traceClient wraps one shard client with a span per fan-out call.
type traceClient struct {
	shard.Client
	t *tracer
}

func (c traceClient) Fragment(ctx context.Context, u sling.NodeID) (*sling.Fragment, error) {
	ctx, end := c.t.begin(ctx, "shard.fragment")
	defer end()
	return c.Client.Fragment(ctx, u)
}

func (c traceClient) SourceSlice(ctx context.Context, f *sling.Fragment, lo, hi int) ([]float64, error) {
	ctx, end := c.t.begin(ctx, "shard.slice")
	defer end()
	return c.Client.SourceSlice(ctx, f, lo, hi)
}

func (c traceClient) TopSlice(ctx context.Context, f *sling.Fragment, k int, skip sling.NodeID, lo, hi int) ([]sling.Scored, error) {
	ctx, end := c.t.begin(ctx, "shard.top")
	defer end()
	return c.Client.TopSlice(ctx, f, k, skip, lo, hi)
}

// selfTimes returns, per span name, each span's duration and its self
// time: the duration minus the part of it its children cover.
func (t *tracer) selfTimes() (dur, self map[string]samples) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	dur, self = map[string]samples{}, map[string]samples{}
	for _, s := range t.spans {
		d := s.End - s.Start
		covered := unionLen(kids[s.ID], s.Start, s.End)
		dur[s.Name] = append(dur[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(d-covered))
	}
	return dur, self
}

// unionLen is the length of the union of the spans' intervals clipped to
// [lo, hi).
func unionLen(ss []span, lo, hi int64) int64 {
	var total, curS, curE int64
	started := false
	// Children are few (at most one per shard plus a fragment); a simple
	// insertion sort by start keeps this allocation-free.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].Start < ss[j-1].Start; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if !started || a > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = a, b, true
		} else if b > curE {
			curE = b
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
