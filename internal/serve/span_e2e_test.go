package serve

import (
	"bufio"
	"context"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// spanSource is a three-loop program; spanSourceB is the same shape with
// different constants, so it is a second cache miss.
const (
	spanLoops  = 3
	spanSource = `
float a[8]; float b[8]; float s;
void main() {
    for (int i = 0; i < 8; i++) { a[i] = i * 2.0; }
    for (int i = 0; i < 8; i++) { s += a[i]; }
    for (int i = 1; i < 8; i++) { b[i] = b[i - 1] + a[i]; }
}
`
	spanSourceB = `
float a[8]; float b[8]; float s;
void main() {
    for (int i = 0; i < 8; i++) { a[i] = i * 3.0; }
    for (int i = 0; i < 8; i++) { s += a[i]; }
    for (int i = 1; i < 8; i++) { b[i] = b[i - 1] + a[i]; }
}
`
)

// spanCounts scrapes /metrics and returns the _count of every stage
// histogram, keyed by its metric segment (mvpar_span_<stage>_seconds).
func spanCounts(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		stage, isSpan := strings.CutPrefix(name, "mvpar_span_")
		stage, isCount := strings.CutSuffix(stage, "_seconds_count")
		if !ok || !isSpan || !isCount {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", sc.Text(), err)
		}
		out[stage] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return out
}

// spanDeltas returns after−before for every stage in want.
func spanDeltas(before, after, want map[string]int64) map[string]int64 {
	got := map[string]int64{}
	for stage := range want {
		got[stage] = after[stage] - before[stage]
	}
	return got
}

// TestStageSpanAccounting pins the one-span-per-stage contract end to
// end. One cache-miss classify of an N-loop program must raise each
// stage histogram by exactly its call count: one build, profile, encode
// and parse per request, and one forward per loop. A request with a
// timings breakdown must add the same counts and carry the stages as
// an unbroken trace chain under its handler. A cache hit must reach no
// stage at all.
func TestStageSpanAccounting(t *testing.T) {
	pl := e2eTrained(t)
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, cls, Config{})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	want := map[string]int64{
		"batcher":         1,
		"replica":         1,
		"classify":        1,
		"dataset_build":   1,
		"dataset_profile": 1,
		"dataset_encode":  1,
		"minic_parse":     1,
		"gnn_forward":     spanLoops,
	}

	// Untraced miss.
	before := spanCounts(t, ts.URL)
	code, resp, _ := postClassify(t, ts.URL, "spans", spanSource)
	if code != 200 || resp.Cached || len(resp.Predictions) != spanLoops {
		t.Fatalf("untraced classify = %d (cached %v, %d loops), want a %d-loop miss",
			code, resp.Cached, len(resp.Predictions), spanLoops)
	}
	after := spanCounts(t, ts.URL)
	if got := spanDeltas(before, after, want); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced miss stage counts = %v, want %v", got, want)
	}

	// Traced miss: the same counts, plus the span tree.
	before = after
	code, tresp := postTimings(ts.URL, "spans-b", spanSourceB)
	if code != 200 || tresp.Cached || len(tresp.Timings) == 0 {
		t.Fatalf("timings classify = %d (cached %v, %d spans), want a traced miss",
			code, tresp.Cached, len(tresp.Timings))
	}
	after = spanCounts(t, ts.URL)
	if got := spanDeltas(before, after, want); !reflect.DeepEqual(got, want) {
		t.Errorf("traced miss stage counts = %v, want %v", got, want)
	}
	chains := map[string][]string{
		"dataset.profile": {"dataset.profile", "dataset.build", "classify", "replica", "batcher", "handler"},
		"dataset.encode":  {"dataset.encode", "dataset.build", "classify", "replica", "batcher", "handler"},
		"interp.run":      {"interp.run", "deps.analyze", "dataset.profile", "dataset.build", "classify", "replica", "batcher", "handler"},
		"gnn.forward":     {"gnn.forward", "classify", "replica", "batcher", "handler"},
	}
	seen := map[string]int{}
	for _, sp := range tresp.Timings {
		seen[sp.Name]++
		if chain, ok := chains[sp.Name]; ok {
			if got := lineage(tresp.Timings, sp); !reflect.DeepEqual(got, chain) {
				t.Errorf("%s lineage = %v, want %v", sp.Name, got, chain)
			}
		}
		if sp.Name == "gnn.forward" {
			if p := attrValue(sp, "precision"); p != "float64" {
				t.Errorf("gnn.forward precision = %q, want float64", p)
			}
			if attrValue(sp, "loop") == "" {
				t.Errorf("gnn.forward span without a loop attribute: %+v", sp)
			}
		}
		if sp.Name == "minic.parse" {
			if l := lineage(tresp.Timings, sp); l[1] == "classify" {
				t.Errorf("classify re-parses the source: %v", l)
			}
		}
	}
	for stage, n := range map[string]int{"dataset.build": 1, "dataset.profile": 1, "dataset.encode": 1, "gnn.forward": spanLoops} {
		if seen[stage] != n {
			t.Errorf("trace holds %d %s spans, want %d (all: %v)", seen[stage], stage, n, seen)
		}
	}

	// Cache hit: no stage runs.
	before = after
	if code, resp, _ := postClassify(t, ts.URL, "spans", spanSource); code != 200 || !resp.Cached {
		t.Fatalf("repeat classify = %d (cached %v), want a hit", code, resp.Cached)
	}
	after = spanCounts(t, ts.URL)
	for stage, n := range after {
		if n != before[stage] {
			t.Errorf("cache hit moved stage %s: %d → %d", stage, before[stage], n)
		}
	}
}
