package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first: one workload operation (a call or batch a
// client makes), one uncertain.Index call, one base page-store call.
const (
	layerOp    = "op"
	layerIndex = "index"
	layerStore = "store"
)

// maxSpans caps the spans one traced phase keeps in memory.
const maxSpans = 1 << 20

// span is one timed call. Spans of one workload operation share Op. A
// store span has Parent and Op zero unless exactly one index call was in
// flight when it started; InFlight is how many were.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Op       int64  `json:"op"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	InFlight int    `json:"in_flight,omitempty"`
}

// tracer keeps a traced phase's spans in memory. Store calls carry no
// context, so a store span is parented to the index call in flight only
// when there is exactly one; with several in flight the call it serves is
// unknown, and the span stays unattributed.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
	active  []spanRef // index calls in flight
}

// spanRef names an open span and the operation it belongs to.
type spanRef struct{ id, op int64 }

type spanKey struct{}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// startOp opens a workload-operation span and returns a context carrying
// it, plus the function that closes it.
func (t *tracer) startOp(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	id := t.nextID.Add(1)
	start := t.now()
	return context.WithValue(ctx, spanKey{}, spanRef{id, id}), func() {
		t.record(span{ID: id, Op: id, Layer: layerOp, Name: name, Start: start, End: t.now()})
	}
}

// startIndex opens an index-call span under the operation in ctx and marks
// it in flight for store-call attribution.
func (t *tracer) startIndex(ctx context.Context, name string) func() {
	if t == nil {
		return func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	ref := spanRef{id: t.nextID.Add(1), op: parent.op}
	start := t.now()
	t.mu.Lock()
	t.active = append(t.active, ref)
	t.mu.Unlock()
	return func() {
		end := t.now()
		t.mu.Lock()
		for i := len(t.active) - 1; i >= 0; i-- {
			if t.active[i] == ref {
				t.active = append(t.active[:i], t.active[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
		t.record(span{ID: ref.id, Parent: parent.id, Op: ref.op, Layer: layerIndex, Name: name, Start: start, End: end})
	}
}

// startStore opens a base-store span.
func (t *tracer) startStore(name string) func() {
	id := t.nextID.Add(1)
	start := t.now()
	t.mu.Lock()
	var parent spanRef
	inFlight := len(t.active)
	if inFlight == 1 {
		parent = t.active[0]
	}
	t.mu.Unlock()
	return func() {
		t.record(span{ID: id, Parent: parent.id, Op: parent.op, Layer: layerStore, Name: name, Start: start, End: t.now(), InFlight: inFlight})
	}
}

// selfTimes returns the summed self time — a span's duration minus the
// part of it its children cover — by layer and by "layer/name", and the
// share of store-span time that started with several index calls in
// flight. That time is not subtracted from any index call's self time, so
// it is counted in both layers.
func (t *tracer) selfTimes() (map[string]time.Duration, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	var storeNS, unattributedNS int64
	for _, s := range t.spans {
		self := time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		out[s.Layer] += self
		out[s.Layer+"/"+s.Name] += self
		if s.Layer == layerStore {
			storeNS += s.End - s.Start
			if s.InFlight > 1 {
				unattributedNS += s.End - s.Start
			}
		}
	}
	return out, per(float64(unattributedNS), float64(storeNS))
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
