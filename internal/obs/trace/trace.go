// Package trace is request-scoped tracing for the serving path: where
// package obs aggregates process-global counters and per-stage wall-time
// totals, trace answers "where did this one request spend its time". A
// Trace is one request's tree of hierarchical spans (parent/child links,
// key/value attributes, per-span durations) identified by a shared trace
// ID, propagated through the pipeline on the context the request already
// carries — handler → batcher → replica → dataset encode → GNN forward.
//
// Pipeline code does not call StartSpan directly: it opens stages with
// obs.StartSpan, which records the stage histogram and builds on this
// package's StartSpan for the trace half. The package keeps one
// invariant: when no trace rides the context, every call is branch-cheap
// and allocation-free. StartSpan on an untraced context is a single
// context.Value lookup returning a nil *Span, and every *Span method is
// nil-safe, so the bit-identical batch path pays nothing when tracing is
// off (guarded by BenchmarkClassifyTracingDisabled and the benchgate).
//
// Finished traces export as JSONL (one span per line, WriteJSONL) or as
// Chrome trace_event JSON (WriteChromeTrace) loadable in chrome://tracing
// and Perfetto. The serving layer retains slow requests' traces in a
// bounded Ring served at /debug/traces; see docs/observability.md.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds one trace's span count so a pathological request (a
// program with thousands of loops) cannot grow a trace without limit;
// spans past the cap are counted in Trace.Dropped instead of retained.
const maxSpans = 512

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. Spans form a tree via
// Parent links; the zero span ID is "no parent" (the root). All methods
// are nil-safe no-ops so call sites need no enabled-checks.
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// Trace is one request's span tree. Create with New, propagate via the
// returned context, finish with Finish. Safe for concurrent use: batch
// execution ends spans from worker goroutines while the handler owns the
// root.
type Trace struct {
	id   uint64
	name string

	mu      sync.Mutex
	nextID  uint64
	spans   []*Span
	root    *Span
	dropped int
}

// traceIDs hands out process-unique trace IDs. Seeded from the clock so
// IDs differ across restarts (they label logs and exports, nothing
// security-relevant).
var traceIDs atomic.Uint64

func init() {
	traceIDs.Store(uint64(time.Now().UnixNano()))
}

// ctxKey carries the active span (and through it the trace) on a context.
type ctxKey struct{}

// New starts a trace named name — its root span — and returns a context
// carrying it. Callers must End the root (or call Finish) when the
// request completes.
func New(ctx context.Context, name string) (context.Context, *Trace) {
	tr := &Trace{
		id:     traceIDs.Add(0x9E3779B97F4A7C15), // Weyl increment: unique, well-mixed low bits
		name:   name,
		nextID: 1,
	}
	root := &Span{tr: tr, id: 1, name: name, start: time.Now()}
	tr.root = root
	tr.spans = append(tr.spans, root)
	return context.WithValue(ctx, ctxKey{}, root), tr
}

// FromContext returns the trace riding ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if sp, _ := ctx.Value(ctxKey{}).(*Span); sp != nil {
		return sp.tr
	}
	return nil
}

// StartSpan begins a child of ctx's active span and returns a context
// with the child active. On an untraced context it returns (ctx, nil) —
// one Value lookup, zero allocations — and the nil span's methods are
// all no-ops, so call sites never branch on whether tracing is enabled.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(parent.id, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// newSpan allocates and registers one span, or returns nil past maxSpans.
func (t *Trace) newSpan(parent uint64, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return nil
	}
	t.nextID++
	sp := &Span{tr: t, id: t.nextID, parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, sp)
	return sp
}

// End marks the span finished, recording its duration. Nil-safe;
// repeated Ends keep the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a key/value pair. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// ID returns the trace's hex identifier (the wire/logs form).
func (t *Trace) ID() string { return fmt.Sprintf("%016x", t.id) }

// Name returns the root span's name.
func (t *Trace) Name() string { return t.name }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Finish ends the root span (idempotent) and returns the trace.
func (t *Trace) Finish() *Trace {
	t.root.End()
	return t
}

// Duration returns the root span's wall time: end−start once finished,
// time-so-far while still running.
func (t *Trace) Duration() time.Duration {
	t.root.mu.Lock()
	end := t.root.end
	t.root.mu.Unlock()
	if end.IsZero() {
		return time.Since(t.root.start)
	}
	return end.Sub(t.root.start)
}

// Start returns the root span's start time.
func (t *Trace) Start() time.Time { return t.root.start }

// SpanData is one span's immutable snapshot, the export unit of every
// serialization (JSONL, Chrome trace_event, the /v1/classify timings
// breakdown, /debug/traces).
type SpanData struct {
	TraceID string `json:"trace_id"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	// StartUS is the span's start offset from the trace root, microseconds.
	StartUS float64 `json:"start_us"`
	// DurUS is the span's duration in microseconds; for a span still
	// running when the snapshot was taken, the duration so far with
	// Unfinished set.
	DurUS      float64 `json:"dur_us"`
	Unfinished bool    `json:"unfinished,omitempty"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// Dropped reports how many spans were discarded past the per-trace cap.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans snapshots the span tree in start order. Each span's offset is
// relative to the root's start.
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	id := t.ID()
	base := t.root.start
	out := make([]SpanData, 0, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		end := sp.end
		attrs := append([]Attr(nil), sp.attrs...)
		sp.mu.Unlock()
		d := SpanData{
			TraceID: id,
			Span:    sp.id,
			Parent:  sp.parent,
			Name:    sp.name,
			StartUS: float64(sp.start.Sub(base)) / float64(time.Microsecond),
			Attrs:   attrs,
		}
		if end.IsZero() {
			d.DurUS = float64(time.Since(sp.start)) / float64(time.Microsecond)
			d.Unfinished = true
		} else {
			d.DurUS = float64(end.Sub(sp.start)) / float64(time.Microsecond)
		}
		out = append(out, d)
	}
	return out
}
