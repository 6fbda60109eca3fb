package obs

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mvpar/internal/obs/trace"
)

// resetLogger restores global logger state after a test.
func resetLogger(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetLevel(LevelOff)
		SetOutput(os.Stderr)
		SetTimestamps(true)
	})
	SetTimestamps(false)
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "off": LevelOff,
		"silent": LevelOff, "": LevelOff,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) succeeded, want error")
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	resetLogger(t)
	var buf strings.Builder
	SetOutput(&buf)

	SetLevel(LevelWarn)
	Debug("d1")
	Info("i1")
	Warn("w1", "k", 1)
	Error("e1")
	if got := buf.String(); got != "WARN w1 k=1\nERROR e1\n" {
		t.Errorf("warn-level output:\n%q", got)
	}

	buf.Reset()
	SetLevel(LevelOff)
	Error("suppressed")
	if buf.Len() != 0 {
		t.Errorf("LevelOff still logged: %q", buf.String())
	}

	buf.Reset()
	SetLevel(LevelDebug)
	Debug("d2", "path", "a b", "n", 3.5)
	if got := buf.String(); got != "DEBUG d2 path=\"a b\" n=3.5\n" {
		t.Errorf("debug output:\n%q", got)
	}
}

func TestEnabled(t *testing.T) {
	resetLogger(t)
	SetLevel(LevelInfo)
	if Enabled(LevelDebug) || !Enabled(LevelInfo) || !Enabled(LevelError) {
		t.Errorf("Enabled wrong at info: debug=%v info=%v error=%v",
			Enabled(LevelDebug), Enabled(LevelInfo), Enabled(LevelError))
	}
	SetLevel(LevelOff)
	if Enabled(LevelError) {
		t.Error("Enabled(error) true at LevelOff")
	}
}

// TestConcurrentMetrics hammers one counter, gauge and histogram from
// many goroutines; run with -race to check the synchronization.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("mvpar_test_ops_total").Inc()
				r.Gauge("mvpar_test_level").Set(float64(w))
				r.Histogram("mvpar_test_hist").Observe(float64(i%10) / 10)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("mvpar_test_ops_total").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	count, sum, min, max := r.Histogram("mvpar_test_hist").Snapshot()
	if count != workers*per {
		t.Errorf("histogram count = %d, want %d", count, workers*per)
	}
	if min != 0 || max != 0.9 {
		t.Errorf("histogram min/max = %v/%v, want 0/0.9", min, max)
	}
	if sum <= 0 {
		t.Errorf("histogram sum = %v", sum)
	}
	if g := r.Gauge("mvpar_test_level").Value(); g < 0 || g >= workers {
		t.Errorf("gauge = %v out of range", g)
	}
}

func TestConcurrentSpans(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				endSpan(r.StartSpan(context.Background(), "stage.par"))
			}
		}()
	}
	wg.Wait()
	tm := r.Timings()
	if len(tm) != 1 || tm[0].Name != "stage.par" || tm[0].Count != 800 {
		t.Errorf("timings = %+v", tm)
	}
}

func TestSpanAggregation(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		_, sp := r.StartSpan(context.Background(), "dataset.build")
		time.Sleep(time.Millisecond)
		if d := sp.End(); d <= 0 {
			t.Fatalf("span duration = %v", d)
		}
	}
	endSpan(r.StartSpan(context.Background(), "gnn.train"))

	totals := r.StageTimings()
	if len(totals) != 2 {
		t.Fatalf("StageTimings = %v", totals)
	}
	if totals["dataset.build"] < 3*time.Millisecond {
		t.Errorf("dataset.build total = %v, want >= 3ms", totals["dataset.build"])
	}
	rows := r.Timings()
	if rows[0].Name != "dataset.build" || rows[0].Count != 3 {
		t.Errorf("Timings[0] = %+v, want dataset.build count 3", rows[0])
	}
	// Span time also lands in the mangled histogram.
	count, sum, _, _ := r.Histogram("mvpar_span_dataset_build_seconds").Snapshot()
	if count != 3 || sum < 0.003 {
		t.Errorf("span histogram count=%d sum=%v", count, sum)
	}
}

func TestTimingsSince(t *testing.T) {
	defer Reset()
	Reset()
	endSpan(StartSpan(context.Background(), "stage.a"))
	before := StageTimings()
	_, sp := StartSpan(context.Background(), "stage.b")
	time.Sleep(time.Millisecond)
	sp.End()
	delta := TimingsSince(before)
	if _, ok := delta["stage.a"]; ok {
		t.Errorf("stage.a should not appear in delta: %v", delta)
	}
	if delta["stage.b"] < time.Millisecond {
		t.Errorf("stage.b delta = %v", delta["stage.b"])
	}
}

// endSpan ends a span straight from StartSpan's results.
func endSpan(_ context.Context, sp Span) { sp.End() }

// TestStartSpanUntracedAllocsNothing: on a context without a trace, and
// on a nil context, a stage span records its histogram and allocates
// nothing once the stage is resolved.
func TestStartSpanUntracedAllocsNothing(t *testing.T) {
	r := NewRegistry()
	for _, ctx := range []context.Context{context.Background(), nil} {
		endSpan(r.StartSpan(ctx, "stage.free"))
		if n := testing.AllocsPerRun(100, func() {
			sctx, sp := r.StartSpan(ctx, "stage.free")
			sp.SetAttrInt("loop", 7)
			sp.SetAttr("view", "node")
			sp.End()
			if sctx != ctx {
				t.Fatal("untraced StartSpan replaced the context")
			}
		}); n != 0 {
			t.Errorf("untraced StartSpan+End (ctx %v) allocates %v/op, want 0", ctx, n)
		}
	}
	// Per context: one warm-up span, then AllocsPerRun's own warm-up run
	// plus its 100 measured runs.
	if count, _, _, _ := r.Histogram("mvpar_span_stage_free_seconds").Snapshot(); count != 2*102 {
		t.Errorf("stage histogram count = %d, want %d", count, 2*102)
	}
}

// TestStartSpanTraced: on a traced context one StartSpan feeds both
// systems: the stage histogram and a trace span, whose children nest
// under it through the returned context.
func TestStartSpanTraced(t *testing.T) {
	r := NewRegistry()
	ctx, tr := trace.New(context.Background(), "handler")
	bctx, build := r.StartSpan(ctx, "dataset.build")
	build.SetAttrInt("loop", 3)
	_, profile := r.StartSpan(bctx, "dataset.profile")
	profile.End()
	build.End()
	tr.Finish()

	rows := r.Timings()
	if len(rows) != 2 || rows[0].Count != 1 || rows[1].Count != 1 {
		t.Errorf("stage timings = %+v, want dataset.build and dataset.profile once each", rows)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want handler+build+profile: %+v", len(spans), spans)
	}
	root, b, p := spans[0], spans[1], spans[2]
	if b.Name != "dataset.build" || b.Parent != root.Span || b.Unfinished {
		t.Errorf("build span = %+v, want finished child of %d", b, root.Span)
	}
	if len(b.Attrs) != 1 || b.Attrs[0] != (trace.Attr{Key: "loop", Value: "3"}) {
		t.Errorf("build attrs = %+v, want loop=3", b.Attrs)
	}
	if p.Name != "dataset.profile" || p.Parent != b.Span || p.Unfinished {
		t.Errorf("profile span = %+v, want finished child of %d", p, b.Span)
	}
}

func TestZeroSpanEndIsSafe(t *testing.T) {
	var s Span
	if d := s.End(); d != 0 {
		t.Errorf("zero Span End = %v", d)
	}
}

// TestDumpGolden pins the dump's text format: sorted lines, stable
// formatting of counters, gauges and histogram aggregates.
func TestDumpGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("mvpar_interp_steps_total").Add(1234)
	r.Counter("mvpar_dataset_records_total").Add(840)
	r.Gauge("mvpar_dataset_balance_ratio").Set(0.5)
	h := r.Histogram("mvpar_peg_nodes")
	h.Observe(10)
	h.Observe(30)
	r.Histogram("mvpar_empty_hist")

	want := strings.Join([]string{
		"mvpar_dataset_balance_ratio 0.5",
		"mvpar_dataset_records_total 840",
		"mvpar_empty_hist_count 0",
		"mvpar_empty_hist_sum 0",
		"mvpar_interp_steps_total 1234",
		`mvpar_peg_nodes_bucket{le="16.777216"} 1`,
		`mvpar_peg_nodes_bucket{le="33.554432"} 2`,
		"mvpar_peg_nodes_count 2",
		"mvpar_peg_nodes_max 30",
		"mvpar_peg_nodes_min 10",
		"mvpar_peg_nodes_sum 40",
	}, "\n") + "\n"
	if got := r.DumpString(); got != want {
		t.Errorf("dump mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteTimingTable(t *testing.T) {
	defer Reset()
	Reset()
	var empty strings.Builder
	WriteTimingTable(&empty)
	if empty.Len() != 0 {
		t.Errorf("empty registry printed a table: %q", empty.String())
	}
	endSpan(StartSpan(context.Background(), "stage.x"))
	var b strings.Builder
	WriteTimingTable(&b)
	out := b.String()
	if !strings.Contains(out, "stage.x") || !strings.Contains(out, "calls") {
		t.Errorf("timing table:\n%s", out)
	}
}
