package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/obs"
)

// stubInference is a controllable Inference: warm-up calls always
// succeed immediately; regular calls optionally block until released,
// fail, or panic. It is safe for concurrent use.
type stubInference struct {
	calls    atomic.Int64 // non-warm-up calls
	started  chan string  // receives the program name as a call begins
	release  chan struct{}
	err      error
	panicMsg string
}

func (s *stubInference) ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	if name == "warmup" {
		return []core.LoopPrediction{{LoopID: 1, Func: "main", Line: 2, Parallel: true, Proba: 0.9, Oracle: true}}, nil
	}
	s.calls.Add(1)
	if s.started != nil {
		s.started <- name
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.panicMsg != "" {
		panic(s.panicMsg)
	}
	if s.err != nil {
		return nil, s.err
	}
	return []core.LoopPrediction{{LoopID: 1, Func: "main", Line: 2, Parallel: true, Proba: 0.75, Oracle: true}}, nil
}

// newTestServer builds a server around inf, serves it via httptest, and
// tears both down with the test.
func newTestServer(t *testing.T, inf Inference, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(inf, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postClassify sends one classify request and decodes the response body.
func postClassify(t *testing.T, url, name, src string) (int, ClassifyResponse, ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(ClassifyRequest{Name: name, Source: src})
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/classify: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ok ClassifyResponse
	var bad ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("bad 200 body %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("bad %d body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, ok, bad
}

// tryClassify is postClassify for spawned goroutines: it reports failure
// through the return value (code 0) instead of t.Fatal.
func tryClassify(url, name, src string) (int, ClassifyResponse) {
	body, _ := json.Marshal(ClassifyRequest{Name: name, Source: src})
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ClassifyResponse{}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ok ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			return 0, ClassifyResponse{}
		}
	}
	return resp.StatusCode, ok
}

const stubSource = "void main() { for (int i = 0; i < 4; i++) { } }"

func TestServerNotReadyBeforeWarmup(t *testing.T) {
	s, ts := newTestServer(t, &stubInference{}, Config{})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before warmup = %d, want 503", resp.StatusCode)
	}
	if code, _, e := postClassify(t, ts.URL, "p", stubSource); code != http.StatusServiceUnavailable {
		t.Fatalf("classify before warmup = %d (%+v), want 503", code, e)
	}

	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after warmup = %d, want 200", resp.StatusCode)
	}
	code, ok, _ := postClassify(t, ts.URL, "p", stubSource)
	if code != http.StatusOK || len(ok.Predictions) != 1 || !ok.Predictions[0].Parallel {
		t.Fatalf("classify after warmup = %d %+v", code, ok)
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, &stubInference{}, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "mvpar_http_requests_total") {
		t.Fatalf("/metrics dump missing mvpar_http_requests_total:\n%s", raw)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, &stubInference{}, Config{MaxBodyBytes: 256})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/classify = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}

	if code, _, _ := postClassify(t, ts.URL, "p", ""); code != http.StatusBadRequest {
		t.Fatalf("empty source = %d, want 400", code)
	}

	big := strings.Repeat("x", 4096)
	if code, _, _ := postClassify(t, ts.URL, "p", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
}

func TestServerQueueOverflowSheds429(t *testing.T) {
	stub := &stubInference{
		started: make(chan string, 16),
		release: make(chan struct{}),
	}
	s, ts := newTestServer(t, stub, Config{
		MaxBatch:    1,
		BatchWindow: -1, // dispatch each request alone
		MaxQueue:    1,
		Workers:     1,
		CacheSize:   -1,
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	codes := make(chan int, 2)
	// First request: picked up by the dispatcher and blocked in execution.
	go func() {
		code, _ := tryClassify(ts.URL, "r1", stubSource)
		codes <- code
	}()
	<-stub.started

	// Second request: sits in the (capacity-1) admission queue while the
	// dispatcher is busy. Wait until the queue-depth gauge confirms it.
	go func() {
		code, _ := tryClassify(ts.URL, "r2", stubSource)
		codes <- code
	}()
	depth := obs.GetGauge("mvpar_http_queue_depth")
	deadline := time.Now().Add(5 * time.Second)
	for depth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request: queue full, must shed synchronously with 429, a
	// retry hint and the configured queue bound in its reasons.
	body, _ := json.Marshal(ClassifyRequest{Name: "r3", Source: stubSource})
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var errResp ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d (%+v), want 429", resp.StatusCode, errResp)
	}
	if derr != nil || errResp.Error == "" {
		t.Fatalf("429 carried no error body (decode: %v)", derr)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", got)
	}
	if len(errResp.Reasons) == 0 || !strings.Contains(errResp.Reasons[0], "holds 1 requests") {
		t.Fatalf("429 reasons = %q, want the configured MaxQueue (1)", errResp.Reasons)
	}

	// Release the pipeline: the two admitted requests must both succeed.
	close(stub.release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200", c)
		}
	}
	if n := obs.GetCounter("mvpar_http_shed_total").Value(); n < 1 {
		t.Fatalf("mvpar_http_shed_total = %d, want >= 1", n)
	}
}

func TestServerGracefulDrainCompletesInFlight(t *testing.T) {
	stub := &stubInference{
		started: make(chan string, 16),
		release: make(chan struct{}),
	}
	s, ts := newTestServer(t, stub, Config{Workers: 1, CacheSize: -1})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		code  int
		preds int
	}
	inflight := make(chan outcome, 1)
	go func() {
		code, ok := tryClassify(ts.URL, "inflight", stubSource)
		inflight <- outcome{code, len(ok.Predictions)}
	}()
	<-stub.started // the request is executing (and blocked)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Drain flips readiness and rejects new work with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := postClassify(t, ts.URL, "late", stubSource)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mid-drain request = %d, want 503", code)
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request must complete successfully, then Shutdown
	// must return cleanly.
	close(stub.release)
	got := <-inflight
	if got.code != http.StatusOK || got.preds != 1 {
		t.Fatalf("in-flight request during drain = %+v, want 200 with 1 prediction", got)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

func TestServerCacheHitsSkipPipeline(t *testing.T) {
	stub := &stubInference{}
	s, ts := newTestServer(t, stub, Config{CacheSize: 8})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, first, _ := postClassify(t, ts.URL, "prog", stubSource)
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first = %d cached=%v", code, first.Cached)
	}
	code, second, _ := postClassify(t, ts.URL, "prog", stubSource)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second = %d cached=%v, want cache hit", code, second.Cached)
	}
	if got, want := stub.calls.Load(), int64(1); got != want {
		t.Fatalf("pipeline ran %d times, want %d (repeat served from LRU)", got, want)
	}
	if len(second.Predictions) != len(first.Predictions) {
		t.Fatalf("cached response differs: %+v vs %+v", second, first)
	}
	// A different name must not collide even with identical source.
	code, third, _ := postClassify(t, ts.URL, "other", stubSource)
	if code != http.StatusOK || third.Cached {
		t.Fatalf("different-name request = %d cached=%v, want fresh", code, third.Cached)
	}
}

func TestServerCapturesPanics(t *testing.T) {
	stub := &stubInference{panicMsg: "encoder exploded"}
	s, ts := newTestServer(t, stub, Config{CacheSize: -1})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, _, errResp := postClassify(t, ts.URL, "boom", stubSource)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", code)
	}
	if !strings.Contains(errResp.Error, "quarantined") {
		t.Fatalf("500 body = %+v, want quarantine-style reason", errResp)
	}
	var foundCause, foundStage bool
	for _, r := range errResp.Reasons {
		if strings.Contains(r, "encoder exploded") {
			foundCause = true
		}
		if strings.Contains(r, "stage:") {
			foundStage = true
		}
	}
	if !foundCause {
		t.Fatalf("500 reasons %v missing the panic cause", errResp.Reasons)
	}
	if !foundStage {
		t.Fatalf("500 reasons %v missing the stage attribution", errResp.Reasons)
	}

	// The process survived: the next request succeeds.
	stub.panicMsg = ""
	if code, _, _ := postClassify(t, ts.URL, "fine", stubSource); code != http.StatusOK {
		t.Fatalf("request after panic = %d, want 200", code)
	}
}

func TestServerUnprocessableProgram(t *testing.T) {
	stub := &stubInference{err: fmt.Errorf("parse: unexpected token")}
	s, ts := newTestServer(t, stub, Config{CacheSize: -1})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, errResp := postClassify(t, ts.URL, "bad", stubSource)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("rejected program = %d (%+v), want 422", code, errResp)
	}
}

func TestBatcherCoalesces(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	release := make(chan struct{})
	b := newBatcher(4, 50*time.Millisecond, 16, 4, func(r *batchRequest) {
		<-release
		mu.Lock()
		seen = append(seen, r.name)
		mu.Unlock()
		r.done <- batchResult{}
	})
	b.start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.drain(ctx)
	}()

	before := obs.GetCounter("mvpar_http_batches_total").Value()
	reqs := make([]*batchRequest, 4)
	for i := range reqs {
		reqs[i] = &batchRequest{
			ctx:  context.Background(),
			name: fmt.Sprintf("r%d", i),
			done: make(chan batchResult, 1),
		}
		if err := b.submit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for _, r := range reqs {
		<-r.done
	}
	// Four near-simultaneous submissions against a 4-wide batch and a
	// 50ms window coalesce into at most two dispatches (the first may
	// race ahead alone before the rest are queued).
	batches := obs.GetCounter("mvpar_http_batches_total").Value() - before
	if batches < 1 || batches > 2 {
		t.Fatalf("4 requests dispatched as %d batches, want 1..2", batches)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("executed %d requests, want 4", len(seen))
	}
}

// TestCacheCopiesAreDefensive locks in that neither the slice handed to
// put nor the one returned by get shares backing arrays with the cache:
// mutating either must not corrupt later cache reads.
func TestCacheCopiesAreDefensive(t *testing.T) {
	c := newLRUCache(4)
	stored := []core.LoopPrediction{
		{LoopID: 1, Func: "main", Parallel: true, Reasons: []string{"a"}},
	}
	c.put("k", stored)
	stored[0].Parallel = false
	stored[0].Reasons[0] = "mutated-after-put"

	got, ok := c.get("k")
	if !ok {
		t.Fatal("cached entry missing")
	}
	if !got[0].Parallel || got[0].Reasons[0] != "a" {
		t.Fatalf("put did not copy: cached entry = %+v", got[0])
	}

	got[0].Parallel = false
	got[0].Reasons[0] = "mutated-after-get"
	_ = append(got, core.LoopPrediction{LoopID: 99})

	again, _ := c.get("k")
	if !again[0].Parallel || again[0].Reasons[0] != "a" || len(again) != 1 {
		t.Fatalf("get did not copy: cached entry = %+v (len %d)", again[0], len(again))
	}
}

// failingInference always errors, warm-up included.
type failingInference struct{}

func (failingInference) ClassifyContext(context.Context, string, string) ([]core.LoopPrediction, error) {
	return nil, fmt.Errorf("model file corrupt")
}

// TestListenAndServeWarmupFailurePropagates pins down the dead-but-
// running fix: when warm-up keeps failing, ListenAndServe must return
// the warm-up error (so the CLI exits non-zero and orchestration
// restarts) instead of serving 503 forever.
func TestListenAndServeWarmupFailurePropagates(t *testing.T) {
	oldAttempts, oldBackoff := warmupAttempts, warmupBackoffStart
	warmupAttempts, warmupBackoffStart = 2, time.Millisecond
	defer func() { warmupAttempts, warmupBackoffStart = oldAttempts, oldBackoff }()

	s := New(failingInference{}, Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "warm-up failed after 2 attempt(s)") {
			t.Fatalf("ListenAndServe returned %v, want propagated warm-up failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after persistent warm-up failure")
	}
}
