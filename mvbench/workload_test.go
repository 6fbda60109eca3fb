package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mvpar/internal/deps"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// sequence encodes the first n requests of a workload.
func sequence(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := NewGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := int64(0); i < int64(n); i++ {
		reqs = append(reqs, g.Request(i))
	}
	data, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, wl := range []string{wlMissSmall, wlMissDeep, wlHitMix} {
		a, b := sequence(t, wl, 42, 400), sequence(t, wl, 42, 400)
		if string(a) != string(b) {
			t.Errorf("%s: seed 42 gave two different request sequences", wl)
		}
		if string(a) == string(sequence(t, wl, 43, 400)) {
			t.Errorf("%s: seeds 42 and 43 gave the same request sequence", wl)
		}
	}
}

func TestMissWorkloadsNeverRepeat(t *testing.T) {
	for _, wl := range []string{wlMissSmall, wlMissDeep} {
		seen := map[[2]string]int64{}
		for _, seed := range []int64{1, 2} {
			g, _ := NewGenerator(wl, seed)
			for i := int64(0); i < 3000; i++ {
				r := g.Request(i)
				k := [2]string{r.Name, r.Source}
				if j, dup := seen[k]; dup {
					t.Fatalf("%s seed %d: request %d repeats request %d (%s)", wl, seed, i, j, r.Name)
				}
				seen[k] = i
			}
		}
	}
}

func TestHitMixHotShare(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		g, _ := NewGenerator(wlHitMix, seed)
		const n = 20000
		hot := 0
		for i := int64(0); i < n; i++ {
			if g.Request(i).Hot {
				hot++
			}
		}
		if share := 100 * float64(hot) / n; share < hotPercent-1 || share > hotPercent+1 {
			t.Errorf("seed %d: hot share %.2f%%, want %d%% within 1 point", seed, share, hotPercent)
		}
	}
}

// TestMissDeepProfileDominates keeps miss-deep's purpose: the
// interpreted profile (deps.AnalyzeContext, as the traced replay calls
// it) is at least 85% of classify time. Each call is timed three times
// from a fresh heap and the fastest is kept, so neither a noisy
// neighbour nor a badly placed GC cycle decides the test.
func TestMissDeepProfileDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the quick model")
	}
	ctx := context.Background()
	m, err := trainModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGenerator(wlMissDeep, 3)
	var analyze, classify time.Duration
	for i := int64(0); i < 20; i++ {
		r := g.Request(i)
		ast, err := minic.Parse(r.Name, r.Source)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Lower(ast)
		if err != nil {
			t.Fatal(err)
		}
		fastest := func(f func() error) time.Duration {
			best := time.Duration(math.MaxInt64)
			for k := 0; k < 3; k++ {
				runtime.GC()
				start := time.Now()
				if err := f(); err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(start))
			}
			return best
		}
		analyze += fastest(func() error {
			_, _, err := deps.AnalyzeContext(ctx, prog, "main", interp.Limits{})
			return err
		})
		classify += fastest(func() error {
			_, err := m.cls[r.Model].ClassifyContext(ctx, r.Name, r.Source)
			return err
		})
	}
	share := analyze.Seconds() / classify.Seconds()
	t.Logf("deps.analyze is %.3f of classify (%.2f ms per request)", share, classify.Seconds()*1000/20)
	if share < 0.85 {
		t.Errorf("deps.analyze is %.3f of classify time on miss-deep, want at least 0.85", share)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := NewGenerator(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if want := []string{wlMissSmall, wlMissDeep, wlHitMix}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.Name || c.got[i].Unit != d.Unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					i, c.got[i].Name, c.got[i].Unit, d.Name, d.Unit)
			}
		}
	}
}
