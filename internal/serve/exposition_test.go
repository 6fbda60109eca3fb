package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"mvpar/internal/obs"
)

// TestServeMetricsExpositionConformance pins the serving layer's full
// metric surface — including the resilience families this layer owns
// (breaker state gauges, reload/rollback counters, degraded-response
// counters, chaos counters, mvpar_build_info) — to the strict
// Prometheus text-format checker that CI also runs against /metrics.
func TestServeMetricsExpositionConformance(t *testing.T) {
	s, ts := newTestServer(t, &genStub{gen: 1}, Config{Version: "test"})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Touch every new counter family so the exposition carries them even
	// when this test runs alone.
	for _, name := range []string{
		"mvpar_replica_breaker_trips_total",
		"mvpar_replica_breaker_probes_total",
		"mvpar_replica_breaker_recoveries_total",
		"mvpar_replica_retries_total",
		"mvpar_model_reloads_total",
		"mvpar_model_reload_failures_total",
		"mvpar_model_generations_drained_total",
		"mvpar_http_degraded_responses_total",
		"mvpar_chaos_injections_total",
		"mvpar_classify_requests_float32_total",
		"mvpar_classify_requests_int8_total",
	} {
		obs.GetCounter(name).Add(0)
	}
	if _, _, err := postClassifyRaw(ts.URL); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := obs.CheckExposition(resp.Body); err != nil {
		t.Fatalf("/metrics exposition fails conformance: %v", err)
	}
	if err := obs.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("registry exposition fails conformance: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE mvpar_build_info gauge",
		`mvpar_build_info{`,
		`generation="`,
		`go_version="go`,
		`version="test"`,
		"# TYPE mvpar_model_generation gauge",
		"# TYPE mvpar_replica_breaker_state_r0 gauge",
		"# TYPE mvpar_replica_breaker_trips_total counter",
		"# TYPE mvpar_model_reloads_total counter",
		"# TYPE mvpar_model_reload_failures_total counter",
		"# TYPE mvpar_http_degraded_responses_total counter",
		"# TYPE mvpar_chaos_injections_total counter",
		"# TYPE mvpar_inference_precision gauge",
		`mvpar_inference_precision{`,
		`precision="float64"`,
		"# TYPE mvpar_classify_requests_float64_total counter",
		"# TYPE mvpar_classify_requests_float32_total counter",
		"# TYPE mvpar_classify_requests_int8_total counter",
		"# TYPE mvpar_model_info_default gauge",
		`mvpar_model_info_default{`,
		`model="default"`,
		"# TYPE mvpar_http_queue_depth gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMultiModelMetricsExposition pins the registry's metric families: a
// multi-model server must expose one mvpar_model_info_<model> info gauge
// per registry entry, all conformant.
func TestMultiModelMetricsExposition(t *testing.T) {
	def := &stubInference{}
	alt := &stubInference{}
	s, err := NewMulti([]ModelSpec{
		{Name: DefaultModel, Snapshot: snapshotOf(def, 2)},
		{Name: "alt.v2", Snapshot: snapshotOf(alt, 2)},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := obs.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("multi-model exposition fails conformance: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE mvpar_model_info_default gauge",
		`mvpar_model_info_default{`,
		// Dots in a model name are sanitized for the metric name but kept
		// verbatim in the label value.
		"# TYPE mvpar_model_info_alt_v2 gauge",
		`model="alt.v2"`,
		`fingerprint="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-model exposition missing %q", want)
		}
	}
}

// postClassifyRaw sends one classify request without test assertions.
func postClassifyRaw(url string) (int, string, error) {
	code, resp := tryClassify(url, "expo", stubSource)
	if code == 0 {
		return 0, "", http.ErrServerClosed
	}
	return code, resp.Name, nil
}
