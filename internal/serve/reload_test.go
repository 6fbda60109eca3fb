package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/obs"
)

// genStub is an Inference whose answers identify which model generation
// produced them (Func = "gen-<n>"), so swap tests can prove no response
// crosses generations. Warm-up calls succeed (unless warmErr is set)
// without blocking; regular calls optionally block until released or
// always panic.
type genStub struct {
	gen      int
	calls    atomic.Int64 // non-warm-up calls
	started  chan string
	release  chan struct{}
	warmErr  error
	panicAll bool
}

func (g *genStub) pred() []core.LoopPrediction {
	return []core.LoopPrediction{{LoopID: 1, Func: fmt.Sprintf("gen-%d", g.gen), Line: 2, Parallel: true, Proba: 0.9}}
}

func (g *genStub) ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	if name == "warmup" {
		if g.warmErr != nil {
			return nil, g.warmErr
		}
		return g.pred(), nil
	}
	g.calls.Add(1)
	if g.started != nil {
		g.started <- name
	}
	if g.release != nil {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if g.panicAll {
		panic(fmt.Sprintf("gen-%d replica wedged", g.gen))
	}
	return g.pred(), nil
}

func (g *genStub) Fingerprint() string { return fmt.Sprintf("fp-%d", g.gen) }

// postReload POSTs /v1/models/reload and returns the status code + body.
func postReload(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/models/reload", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/models/reload: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestServerReloadSwapsGenerationAndInvalidatesCache(t *testing.T) {
	gen1 := &genStub{gen: 1}
	gen2 := &genStub{gen: 2}
	cfg := Config{CacheSize: 8}
	cfg.Loader = func(context.Context) (Snapshot, error) {
		return snapshotOf(gen2, 2), nil
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, first, _ := postClassify(t, ts.URL, "p", stubSource)
	if code != 200 || first.Generation != 1 || first.Predictions[0].Func != "gen-1" {
		t.Fatalf("pre-swap classify = %d %+v, want generation 1 from gen-1", code, first)
	}
	if code, second, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 || !second.Cached {
		t.Fatalf("repeat = %d cached=%v, want cache hit", code, second.Cached)
	}

	code, body := postReload(t, ts.URL)
	if code != 200 || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("reload = %d %s, want 200 with generation 2", code, body)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("Generation() = %d, want 2", got)
	}

	// The same request must re-run on the new model — a generation-scoped
	// cache key makes gen-1's entry unreachable — and answer from gen-2.
	code, third, _ := postClassify(t, ts.URL, "p", stubSource)
	if code != 200 || third.Cached || third.Generation != 2 || third.Predictions[0].Func != "gen-2" {
		t.Fatalf("post-swap classify = %d %+v, want fresh generation-2 answer", code, third)
	}
	if n := gen2.calls.Load(); n != 1 {
		t.Fatalf("gen-2 pipeline ran %d times, want 1", n)
	}

	// /healthz reports the swapped identity.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"generation":2`) || !strings.Contains(string(raw), "fp-2") {
		t.Fatalf("/healthz after swap = %s, want generation 2 + fp-2", raw)
	}
}

func TestServerReloadRollsBackOnLoaderError(t *testing.T) {
	gen1 := &genStub{gen: 1}
	cfg := Config{CacheSize: -1}
	cfg.Loader = func(context.Context) (Snapshot, error) {
		return Snapshot{}, errors.New("checkpoint corrupt: crc mismatch")
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	failsBefore := obs.GetCounter("mvpar_model_reload_failures_total").Value()

	code, body := postReload(t, ts.URL)
	if code != 500 || !strings.Contains(body, "rolled back") || !strings.Contains(body, "crc mismatch") {
		t.Fatalf("failed reload = %d %s, want 500 naming the rollback cause", code, body)
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("Generation after rollback = %d, want 1", got)
	}
	if n := obs.GetCounter("mvpar_model_reload_failures_total").Value(); n != failsBefore+1 {
		t.Fatalf("mvpar_model_reload_failures_total = %d, want %d", n, failsBefore+1)
	}
	// The old model keeps serving.
	if code, ok, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 || ok.Generation != 1 {
		t.Fatalf("classify after rollback = %d gen %d, want 200 on generation 1", code, ok.Generation)
	}
}

func TestServerReloadRollsBackOnWarmupFailure(t *testing.T) {
	gen1 := &genStub{gen: 1}
	bad := &genStub{gen: 2, warmErr: errors.New("NaN logits on warm-up input")}
	cfg := Config{CacheSize: -1}
	cfg.Loader = func(context.Context) (Snapshot, error) {
		return snapshotOf(bad, 2), nil
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body := postReload(t, ts.URL)
	if code != 500 || !strings.Contains(body, "rolled back") || !strings.Contains(body, "NaN logits") {
		t.Fatalf("reload with failing warm-up = %d %s, want 500 rollback", code, body)
	}
	if s.Generation() != 1 {
		t.Fatalf("Generation = %d, want 1 (swap must not happen)", s.Generation())
	}
	if code, ok, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 || ok.Predictions[0].Func != "gen-1" {
		t.Fatalf("classify after rollback = %d %+v, want gen-1 answer", code, ok)
	}
}

func TestServerReloadWithoutLoaderAnswers501(t *testing.T) {
	s, ts := newTestServer(t, &genStub{gen: 1}, Config{CacheSize: -1})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := postReload(t, ts.URL); code != http.StatusNotImplemented {
		t.Fatalf("reload without loader = %d %s, want 501", code, body)
	}
	if _, err := s.Reload(context.Background()); !errors.Is(err, ErrNoLoader) {
		t.Fatalf("Reload without loader = %v, want ErrNoLoader", err)
	}
}

// TestServerReloadDrainsOldGenerationInFlight pins the hot-swap drain
// contract: a request admitted before the swap finishes on the OLD
// generation's replicas and reports the old generation, while requests
// after the swap answer from the new one; once the pinned request
// completes the old generation is declared drained.
func TestServerReloadDrainsOldGenerationInFlight(t *testing.T) {
	gen1 := &genStub{gen: 1, started: make(chan string, 4), release: make(chan struct{})}
	gen2 := &genStub{gen: 2}
	cfg := Config{CacheSize: -1, Workers: 1}
	cfg.Loader = func(context.Context) (Snapshot, error) {
		return snapshotOf(gen2, 2), nil
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code int
		resp ClassifyResponse
	}
	inflight := make(chan reply, 1)
	go func() {
		code, ok := tryClassify(ts.URL, "pinned", stubSource)
		inflight <- reply{code, ok}
	}()
	<-gen1.started // executing on generation 1, blocked

	drainedBefore := obs.GetCounter("mvpar_model_generations_drained_total").Value()
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatalf("Reload with a request in flight: %v", err)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("Generation after swap = %d, want 2", got)
	}

	// The old generation is NOT drained while its pinned request runs.
	if n := obs.GetCounter("mvpar_model_generations_drained_total").Value(); n != drainedBefore {
		t.Fatal("old generation declared drained with a request still in flight")
	}

	// The pinned request completes on the OLD generation's replicas.
	close(gen1.release)
	got := <-inflight
	if got.code != 200 || got.resp.Generation != 1 || got.resp.Predictions[0].Func != "gen-1" {
		t.Fatalf("pinned request = %d %+v, want a generation-1 answer from gen-1", got.code, got.resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for obs.GetCounter("mvpar_model_generations_drained_total").Value() != drainedBefore+1 {
		if time.Now().After(deadline) {
			t.Fatal("old generation never declared drained after its last request finished")
		}
		time.Sleep(time.Millisecond)
	}

	// Traffic after the swap answers from the new generation.
	if code, ok, _ := postClassify(t, ts.URL, "fresh", stubSource); code != 200 ||
		ok.Generation != 2 || ok.Predictions[0].Func != "gen-2" {
		t.Fatalf("post-swap classify = %d %+v, want generation 2", code, ok)
	}
}

// degradableStub panics on every full classification but serves the
// degraded node-view-only rung, like core.Classifier does.
type degradableStub struct {
	genStub
	degradedCalls atomic.Int64
}

func (d *degradableStub) ClassifyDegradedContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	d.degradedCalls.Add(1)
	return []core.LoopPrediction{{
		LoopID: 1, Func: fmt.Sprintf("gen-%d", d.gen), Line: 2,
		Parallel: true, Proba: 0.6, Degraded: true,
		Reasons: []string{"prediction from node view only"},
	}}, nil
}

// TestServerDegradedFallbackWhenAllReplicasFault drives every replica
// into a panic loop and asserts the degradation ladder answers 200 with
// degraded provenance instead of 500, and /readyz reports the degraded
// state while staying routable.
func TestServerDegradedFallbackWhenAllReplicasFault(t *testing.T) {
	stub := &degradableStub{genStub: genStub{gen: 1, panicAll: true}}
	s, ts := newTestServer(t, stub, Config{
		CacheSize:        -1,
		Replicas:         2,
		MaxRetries:       2,
		BreakerThreshold: 1, // first fault trips each replica
		BreakerBackoff:   time.Hour,
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, ok, errResp := postClassify(t, ts.URL, "p", stubSource)
	if code != 200 {
		t.Fatalf("classify with all replicas faulting = %d (%+v), want degraded 200", code, errResp)
	}
	if !ok.Degraded || len(ok.DegradedReasons) == 0 ||
		!strings.Contains(ok.DegradedReasons[0], "node-view-only") {
		t.Fatalf("degraded response = %+v, want degraded:true with a node-view reason", ok)
	}
	if ok.Generation != 1 {
		t.Fatalf("degraded response generation = %d, want 1", ok.Generation)
	}
	if stub.degradedCalls.Load() == 0 {
		t.Fatal("degraded rung never ran")
	}

	// Both breakers are now open: /readyz reports degraded but stays 200
	// (the ladder still answers traffic).
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(raw), `"state":"degraded"`) ||
		!strings.Contains(string(raw), `"healthy_replicas":0`) {
		t.Fatalf("/readyz with all breakers open = %d %s, want 200 degraded", resp.StatusCode, raw)
	}
}

// TestServerCacheRungServesWhenReplicasFault pins the first ladder rung:
// a previously computed answer is served from the generation-scoped
// cache when every replica is unhealthy, marked degraded.
func TestServerCacheRungServesWhenReplicasFault(t *testing.T) {
	stub := &degradableStub{genStub: genStub{gen: 1}}
	s, ts := newTestServer(t, stub, Config{
		CacheSize:        8,
		Replicas:         2,
		MaxRetries:       2,
		BreakerThreshold: 1,
		BreakerBackoff:   time.Hour,
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Healthy first pass populates the generation-scoped cache.
	if code, ok, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 || ok.Degraded {
		t.Fatalf("healthy classify = %d %+v", code, ok)
	}

	// Trip every breaker, then drive the executor path directly with the
	// cached key (the HTTP handler would answer from the cache at
	// admission; the ladder's cache rung covers requests that were
	// admitted on a miss and found the replicas gone by execution time).
	stub.panicAll = true
	gen := s.defaultModel().gen.Load()
	for _, rep := range gen.reps {
		rep.br.failure()
	}
	if gen.healthy() != 0 {
		t.Fatal("breakers not open")
	}
	r := &batchRequest{
		ctx:  context.Background(),
		name: "p",
		src:  stubSource,
		key:  cacheKey(gen.key(), "p", stubSource),
		gen:  gen,
	}
	res := s.classify(r)
	if res.err != nil || len(res.preds) == 0 || res.gen != 1 {
		t.Fatalf("cache rung result = %+v, want a generation-1 answer", res)
	}
	if len(res.degraded) == 0 || !strings.Contains(res.degraded[0], "cache-only") {
		t.Fatalf("cache rung degraded reasons = %v, want cache-only provenance", res.degraded)
	}
	if res.preds[0].Func != "gen-1" {
		t.Fatalf("cache rung served %q, want the cached gen-1 prediction", res.preds[0].Func)
	}
	// The full pipeline never ran for it.
	if stub.calls.Load() != 1 {
		t.Fatalf("pipeline ran %d times, want 1 (cache rung must not classify)", stub.calls.Load())
	}
}

// TestBatcherQueueFullDuringDrain pins the shed-vs-deadlock contract:
// submissions racing a drain are refused with ErrDraining (or shed with
// ErrQueueFull), never blocked, and drain itself completes even though
// the queue held waiting requests when it began.
func TestBatcherQueueFullDuringDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	b := newBatcher(1, -1, 2, 1, func(r *batchRequest) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		r.done <- batchResult{}
	})
	b.start()

	mk := func(name string) *batchRequest {
		return &batchRequest{ctx: context.Background(), name: name, done: make(chan batchResult, 1)}
	}
	// First request occupies the executor; once it is running, two more
	// fill the (capacity-2) queue.
	reqs := []*batchRequest{mk("r0"), mk("r1"), mk("r2")}
	if err := b.submit(reqs[0]); err != nil {
		t.Fatalf("submit(r0) = %v", err)
	}
	<-started
	for _, r := range reqs[1:] {
		if err := b.submit(r); err != nil {
			t.Fatalf("submit(%s) = %v", r.name, err)
		}
	}
	// Queue full: overflow sheds synchronously.
	if err := b.submit(mk("overflow")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past capacity = %v, want ErrQueueFull", err)
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- b.drain(ctx)
	}()

	// Mid-drain submissions are refused immediately — not enqueued, not
	// blocked — even while the queue still holds admitted requests.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := b.submit(mk("late"))
		if errors.Is(err, ErrDraining) {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("mid-drain submit = %v, want ErrDraining or ErrQueueFull", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never closed admission")
		}
		time.Sleep(time.Millisecond)
	}

	// Release the executor: every admitted request must finish and drain
	// must return instead of deadlocking on the still-full queue.
	close(release)
	for _, r := range reqs {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("admitted request %s never finished during drain", r.name)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain = %v", err)
	}
}
