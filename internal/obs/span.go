package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"mvpar/internal/obs/trace"
)

// Span is one in-flight stage measurement, created by StartSpan. End
// records its wall time into the stage's histogram and, when the span was
// started on a traced context, ends the matching request-trace span. The
// zero Span is a no-op.
type Span struct {
	hist  *Histogram
	start time.Time
	tr    *trace.Span
}

// StartSpan begins a stage span on the default registry and returns the
// context later stages should nest under. Typical use:
//
//	ctx, sp := obs.StartSpan(ctx, "dataset.build")
//	defer sp.End()
//
// The stage's wall time always lands in mvpar_span_<stage>_seconds. When
// ctx carries a request trace (see package trace), the span also opens a
// child of the trace's active span, and the returned context makes it the
// parent of the stages below. ctx may be nil for stages that have no
// context to nest under. On an untraced context StartSpan and End
// allocate nothing.
func StartSpan(ctx context.Context, stage string) (context.Context, Span) {
	return defaultRegistry.StartSpan(ctx, stage)
}

// StartSpan begins a stage span on r; see the package-level StartSpan.
func (r *Registry) StartSpan(ctx context.Context, stage string) (context.Context, Span) {
	ctx, tr := trace.StartSpan(ctx, stage)
	return ctx, Span{hist: r.stage(stage), start: time.Now(), tr: tr}
}

// End records the span's duration and returns it.
func (s Span) End() time.Duration {
	if s.hist == nil {
		return 0
	}
	d := time.Since(s.start)
	s.hist.Observe(d.Seconds())
	s.tr.End()
	return d
}

// SetAttr annotates the span's trace half with a key/value pair; a no-op
// when the span is untraced.
func (s Span) SetAttr(key, value string) { s.tr.SetAttr(key, value) }

// SetAttrInt is SetAttr for an integer value; the value is formatted only
// when the span is traced.
func (s Span) SetAttrInt(key string, value int64) { s.tr.SetAttrInt(key, value) }

// stage returns the histogram of a stage name, mvpar_span_<stage>_seconds,
// resolving its metric name only on the stage's first span.
func (r *Registry) stage(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.stages[name]
	if h == nil {
		metric := "mvpar_span_" + mangle(name) + "_seconds"
		if h = r.hists[metric]; h == nil {
			h = &Histogram{}
			r.hists[metric] = h
		}
		r.stages[name] = h
	}
	return h
}

// mangle turns a stage name into a metric-name segment.
func mangle(name string) string {
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			return c
		}
		return '_'
	}, name)
}

// StageTimings returns the cumulative wall time per stage name recorded
// so far on the default registry.
func StageTimings() map[string]time.Duration { return defaultRegistry.StageTimings() }

// StageTimings returns the cumulative wall time per stage name.
func (r *Registry) StageTimings() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, st := range r.Timings() {
		out[st.Name] = st.Total
	}
	return out
}

// StageTiming is one row of the per-stage timing summary.
type StageTiming struct {
	Name  string
	Count int64
	Total time.Duration
}

// Timings returns the per-stage summary of the default registry, sorted
// by descending total wall time.
func Timings() []StageTiming { return defaultRegistry.Timings() }

// Timings returns the per-stage summary sorted by descending total. It
// reads each stage's count and sum from its histogram; stages with no
// finished span are omitted.
func (r *Registry) Timings() []StageTiming {
	r.mu.Lock()
	out := make([]StageTiming, 0, len(r.stages))
	for name, h := range r.stages {
		count, sum, _, _ := h.Snapshot()
		if count == 0 {
			continue
		}
		total := time.Duration(math.Round(sum * float64(time.Second)))
		out = append(out, StageTiming{Name: name, Count: count, Total: total})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TimingsSince subtracts a StageTimings snapshot taken earlier from the
// default registry's current totals, yielding the wall time spent per
// stage in between. Stages with no new time are omitted.
func TimingsSince(before map[string]time.Duration) map[string]time.Duration {
	now := StageTimings()
	out := map[string]time.Duration{}
	for name, total := range now {
		if d := total - before[name]; d > 0 {
			out[name] = d
		}
	}
	return out
}

// WriteTimingTable renders the per-stage timing summary of the default
// registry as an aligned text table.
func WriteTimingTable(w io.Writer) {
	rows := Timings()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "stage", "calls", "total", "mean")
	for _, r := range rows {
		mean := r.Total / time.Duration(r.Count)
		fmt.Fprintf(w, "%-28s %8d %14s %14s\n",
			r.Name, r.Count, r.Total.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
}
