// Package serve is the long-lived inference layer: it exposes a trained
// multi-view classifier behind a stdlib-only HTTP service (`mvpar serve`)
// so downstream consumers — editors, CI gates, build systems — classify
// loops without paying model-load and encoder-build costs per request.
//
// The request path is a single-queue micro-batching admission pipeline
// over a registry of named models:
//
//	POST /v1/classify?model=<name> → registry lookup → generation pin
//	  → LRU cache (generation-keyed)
//	  → bounded queue (429 past MaxQueue)
//	  → batcher (coalesce ≤ MaxBatch within BatchWindow)
//	  → circuit-breaking replica routing (retry around faults)
//	  → per-request context deadline into the interpreter's stride check
//	  → degradation ladder (cache-only → node-view-only) when replicas
//	    are unhealthy or the deadline is nearly spent
//
// plus /healthz (liveness + generation identity), /readyz (warm, not
// draining; reports "degraded" while the ladder is active), /metrics
// (the internal/obs registry — Prometheus exposition under content
// negotiation — extended with the mvpar_http_* / mvpar_replica_* /
// mvpar_model_* families), POST /v1/models/reload (atomic model hot
// swap: load → warm → parity-check → swap, with the old generation
// draining in flight and automatic rollback on failure), /debug/traces
// (retained slow-request span trees, see internal/obs/trace) and,
// behind Config.EnablePprof, the /debug/pprof/ profile endpoints.
// Results are bit-identical to serial core.Pipeline.ClassifySource at
// every concurrency level — the same determinism contract the training
// pool upholds. Shutdown is graceful: draining finishes every admitted
// request before the dispatcher exits.
//
// The resilience model (swap/drain/rollback state machine, breaker
// states, degradation ladder, chaos harness) is documented in
// docs/robustness.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/faults"
	"mvpar/internal/interp"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Inference is the model dependency of the server; *core.Classifier is
// the production implementation. Implementations must be safe for
// concurrent use. Implementations may additionally provide the
// DegradedInference and Fingerprinter surfaces (core.Classifier does).
type Inference interface {
	ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error)
}

// Loader produces a fresh model snapshot for a hot reload — typically
// by re-reading a checkpoint file and taking new classifier handles.
// It runs under the reload lock (never concurrently with itself).
type Loader func(ctx context.Context) (Snapshot, error)

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	// Addr is the listen address, default ":8080".
	Addr string
	// MaxBatch caps how many requests one dispatch coalesces; default 8.
	MaxBatch int
	// BatchWindow is how long the dispatcher waits for batchmates after
	// the first request arrives; default 2ms. Zero keeps the default;
	// negative disables coalescing (every request dispatches alone).
	BatchWindow time.Duration
	// MaxQueue bounds the admission queue; requests beyond it are shed
	// with 429. Default 64.
	MaxQueue int
	// Workers bounds batch-execution concurrency; 0 uses the shared
	// pool default (NumCPU or the --jobs override).
	Workers int
	// RequestTimeout is the per-request classification deadline (flows
	// into the interpreter's stride check); default 30s.
	RequestTimeout time.Duration
	// CacheSize is the LRU capacity for repeat submissions, keyed on a
	// hash of (generation, name, source); default 128, negative disables
	// caching.
	CacheSize int
	// MaxBodyBytes bounds the request body; default 1 MiB.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown; default 15s.
	DrainTimeout time.Duration
	// DrainGrace is how long the server keeps answering (with /readyz
	// reporting 503 draining) after Shutdown begins, before the listener
	// closes — the readiness-propagation window load balancers need to
	// stop routing here. Default 0 (close immediately; set it in
	// production, e.g. 2s).
	DrainGrace time.Duration
	// Replicas is how many circuit-breaking failure domains a generation
	// fans requests over; default 4. When the server is built from a
	// single Inference the domains share it; a Loader may supply
	// genuinely distinct handles.
	Replicas int
	// MaxRetries is how many additional replicas a request is retried on
	// after a replica fault (panic, deadline overrun) before falling to
	// the degradation ladder; default 2, negative disables retries.
	MaxRetries int
	// BreakerThreshold is the consecutive-fault count that trips a
	// replica's breaker open; default 3.
	BreakerThreshold int
	// BreakerBackoff is the first open interval of a tripped breaker
	// (doubling on each failed half-open probe); default 500ms.
	BreakerBackoff time.Duration
	// BreakerMaxBackoff caps the exponential backoff; default 30s.
	BreakerMaxBackoff time.Duration
	// DegradeHeadroom, when positive, short-circuits a request straight
	// to the degradation ladder if its deadline is closer than this when
	// execution starts — a queue-delayed request gets a fast degraded
	// answer instead of a doomed full classification. Default 0 (off).
	DegradeHeadroom time.Duration
	// Loader, when set, enables POST /v1/models/reload and SIGHUP-driven
	// hot swaps. Without it reload requests answer 501.
	Loader Loader
	// Version labels mvpar_build_info; default "dev".
	Version string
	// TraceSlow enables slow-request capture: every request is traced and
	// any request slower than this threshold has its span tree retained
	// in a bounded in-memory ring served at /debug/traces (plus a
	// structured log line and mvpar_http_slow_requests_total). Zero
	// disables capture; requests are then traced only when they ask for a
	// timings breakdown.
	TraceSlow time.Duration
	// TraceRing caps how many slow-request traces the ring retains
	// (oldest evicted first); default 64, negative disables retention
	// (slow requests are still counted and logged).
	TraceRing int
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
	// on the serve mux. Off by default: the profile endpoints can stall
	// the process (30s CPU captures) and belong behind an operator's
	// explicit flag.
	EnablePprof bool
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.DrainGrace < 0 {
		c.DrainGrace = 0
	}
	if c.Replicas <= 0 {
		c.Replicas = 4
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.TraceRing == 0 {
		c.TraceRing = 64
	}
	return c
}

// breakerCfg derives the per-replica breaker configuration.
func (c Config) breakerCfg() breakerConfig {
	return breakerConfig{
		threshold:  c.BreakerThreshold,
		backoff:    c.BreakerBackoff,
		maxBackoff: c.BreakerMaxBackoff,
	}.withDefaults()
}

// ErrNoReplicas reports that every replica's breaker refused a request
// and no degradation rung could answer it (503).
var ErrNoReplicas = errors.New("serve: all model replicas unhealthy")

// ErrNoLoader reports a reload request against a server built without a
// Loader (501).
var ErrNoLoader = errors.New("serve: no model loader configured")

// Server is one inference service instance.
type Server struct {
	cfg    Config
	hs     *http.Server
	traces *trace.Ring // slow-request retention, nil when disabled

	// reg holds the served models (name → generation chain); cache holds
	// repeat submissions (nil when caching is disabled); bat is the
	// bounded admission queue and its dispatcher.
	reg   *registry
	cache *lruCache
	bat   *batcher

	ready    atomic.Bool
	draining atomic.Bool
}

// New builds a server around a single Inference (fanned over
// cfg.Replicas breaker domains) and starts its dispatcher. The server is
// not ready until Warmup succeeds; use Handler for in-process tests or
// ListenAndServe for the full lifecycle.
func New(inf Inference, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return NewWithSnapshot(snapshotOf(inf, cfg.Replicas), cfg)
}

// NewWithSnapshot is New for callers that already hold a multi-replica
// snapshot (e.g. one core.Classifier handle per failure domain). The
// snapshot becomes the registry's default model; cfg.Loader (when set)
// is its reload loader.
func NewWithSnapshot(snap Snapshot, cfg Config) *Server {
	s, err := NewMulti([]ModelSpec{{Name: DefaultModel, Snapshot: snap, Loader: cfg.Loader}}, cfg)
	if err != nil {
		// The single-model spec above is valid by construction; an error
		// here means the snapshot itself is unusable (no replicas) — a
		// programmer error in the caller, as before this path existed.
		panic(err)
	}
	return s
}

// NewMulti builds a server over a registry of named models. The first
// spec is the default model: the one unnamed requests (and the
// single-model metric families) resolve to.
func NewMulti(specs []ModelSpec, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg, err := newRegistry(specs)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: reg}
	if cfg.TraceRing > 0 {
		s.traces = trace.NewRing(cfg.TraceRing)
	}
	s.cache = newLRUCache(cfg.CacheSize)
	s.bat = newBatcher(cfg.MaxBatch, cfg.BatchWindow, cfg.MaxQueue, cfg.Workers, s.execute)
	for _, spec := range specs {
		s.install(reg.byName[spec.Name], spec.Snapshot)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/classify", instrument("classify", http.HandlerFunc(s.handleClassify)))
	mux.Handle("/v1/models", instrument("models", http.HandlerFunc(s.handleModels)))
	mux.Handle("/v1/models/reload", instrument("reload", http.HandlerFunc(s.handleReload)))
	mux.Handle("/healthz", instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/readyz", instrument("readyz", http.HandlerFunc(s.handleReadyz)))
	mux.Handle("/metrics", instrument("metrics", obs.Handler()))
	mux.Handle("/debug/traces", instrument("debug_traces", http.HandlerFunc(s.handleDebugTraces)))
	if cfg.EnablePprof {
		// Registered explicitly (not via the package's DefaultServeMux
		// side effects) so the endpoints exist only behind the flag.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.hs = &http.Server{
		Addr:              cfg.Addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.bat.start()
	return s, nil
}

// Handler exposes the routed handler for httptest-style embedding.
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// defaultModel returns the registry's default model (the first spec).
func (s *Server) defaultModel() *model { return s.reg.byName[s.reg.def] }

// Generation returns the default model's live generation id (1 for the
// initial model, +1 per successful hot swap).
func (s *Server) Generation() uint64 { return s.defaultModel().gen.Load().id }

// install makes snap m's live generation and starts draining the old
// one: in-flight requests pinned to it finish against its replicas, and
// once the last of them completes the generation is declared drained.
func (s *Server) install(m *model, snap Snapshot) *generation {
	id := m.genSeq.Add(1)
	gen := newGeneration(id, m.name, snap, s.cfg.breakerCfg())
	old := m.gen.Swap(gen)
	if m.name == s.reg.def {
		// The default model keeps the single-model metric families every
		// existing dashboard reads.
		obs.GetGauge("mvpar_model_generation").Set(float64(id))
		obs.SetInfo("mvpar_build_info", map[string]string{
			"version":    s.cfg.Version,
			"go_version": runtime.Version(),
			"generation": strconv.FormatUint(id, 10),
			"model":      gen.fp,
		})
		// Build-info-style precision gauge: which inference engine the
		// live generation answers with (operators alert on an unexpected
		// flip).
		obs.SetInfo("mvpar_inference_precision", map[string]string{
			"precision": gen.prec,
		})
	}
	// Per-model identity gauge: one constant-1 info metric per registry
	// entry, so operators confirm every model's generation + weights
	// from /metrics alone.
	obs.SetInfo("mvpar_model_info_"+m.metric, map[string]string{
		"model":       m.name,
		"generation":  strconv.FormatUint(id, 10),
		"fingerprint": gen.fp,
		"precision":   gen.prec,
	})
	if old != nil {
		go func() {
			old.inflight.Wait()
			obs.GetCounter("mvpar_model_generations_drained_total").Inc()
			obs.Info("serve.generation_drained", "model", m.name, "generation", old.id)
		}()
	}
	return gen
}

// warmupSource is the program warm-up classifies: small enough to finish
// in milliseconds, but a real loop so the full profile→PEG→two-view
// path (and every lazily built piece of encoder state) runs once before
// the server reports ready.
const warmupSource = `
float warm[4];
void main() { for (int i = 0; i < 4; i++) { warm[i] = warm[i] * 2.0; } }
`

// parityCheck validates one warm-up classification: a model is fit to
// serve only if it produces at least one structurally sound prediction.
// It is the gate both initial warm-up and every hot-swap candidate must
// pass before a generation can answer traffic.
func parityCheck(preds []core.LoopPrediction) error {
	if len(preds) == 0 {
		return errors.New("serve: warm-up classify returned no predictions")
	}
	for _, p := range preds {
		if p.Proba < 0 || p.Proba > 1 || p.Proba != p.Proba {
			return fmt.Errorf("serve: warm-up parity check failed: loop %d proba %v outside [0,1]", p.LoopID, p.Proba)
		}
	}
	return nil
}

// warmGeneration runs the warm-up classification + parity check on every
// replica of gen.
func warmGeneration(ctx context.Context, gen *generation) error {
	for _, rep := range gen.reps {
		preds, err := rep.inf.ClassifyContext(ctx, "warmup", warmupSource)
		if err == nil {
			err = parityCheck(preds)
		}
		if err != nil {
			return fmt.Errorf("replica %d: %w", rep.id, err)
		}
	}
	return nil
}

// Warmup runs one classification through every replica of every model's
// live generation and marks the server ready on success. Until it
// returns nil, /readyz and /v1/classify answer 503.
func (s *Server) Warmup(ctx context.Context) error {
	start := time.Now()
	for _, m := range s.reg.all() {
		gen := m.gen.Load()
		if err := warmGeneration(ctx, gen); err != nil {
			obs.GetCounter("mvpar_http_warmup_failures_total").Inc()
			obs.Error("serve.warmup", "model", m.name, "generation", gen.id, "err", err)
			return fmt.Errorf("model %q: %w", m.name, err)
		}
	}
	s.ready.Store(true)
	obs.Info("serve.ready", "models", len(s.reg.names), "warmup_seconds", time.Since(start).Seconds())
	return nil
}

// Ready reports whether the warm-up classification has passed.
func (s *Server) Ready() bool { return s.ready.Load() }

// ReloadResult reports a successful hot swap.
type ReloadResult struct {
	// Model names the registry entry that swapped (omitted for the
	// default model, keeping the single-model wire format unchanged).
	Model       string        `json:"model,omitempty"`
	Generation  uint64        `json:"generation"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Warmup      time.Duration `json:"-"`
	// WarmupSeconds is the JSON-facing warm-up duration.
	WarmupSeconds float64 `json:"warmup_seconds"`
}

// Reload hot-swaps the default model (see ReloadModel).
func (s *Server) Reload(ctx context.Context) (ReloadResult, error) {
	return s.ReloadModel(ctx, "")
}

// ReloadModel performs one atomic hot swap of the named model (empty
// means the default): load a fresh snapshot via the model's Loader,
// warm and parity-check every candidate replica OFF the serving path,
// then swap it in as a new generation while the old one drains in
// flight. Any failure — loader error (corrupt checkpoint, missing
// file), warm-up error, parity failure — rolls back: the swap never
// happens, the previous generation keeps serving untouched, and the
// error is returned. Concurrent reloads of one model serialize;
// different models swap independently.
func (s *Server) ReloadModel(ctx context.Context, name string) (ReloadResult, error) {
	m, err := s.reg.get(name)
	if err != nil {
		return ReloadResult{}, err
	}
	if m.loader == nil {
		return ReloadResult{}, ErrNoLoader
	}
	m.reloadMu.Lock()
	defer m.reloadMu.Unlock()
	obs.GetCounter("mvpar_model_reloads_total").Inc()
	fail := func(stage string, err error) (ReloadResult, error) {
		obs.GetCounter("mvpar_model_reload_failures_total").Inc()
		obs.Error("serve.reload_rollback", "model", m.name, "stage", stage,
			"generation", m.gen.Load().id, "err", err)
		return ReloadResult{}, fmt.Errorf("serve: reload rolled back (%s): %w", stage, err)
	}
	snap, err := m.loader(ctx)
	if err != nil {
		return fail("load", err)
	}
	if len(snap.Replicas) == 0 {
		return fail("load", errors.New("loader returned no replicas"))
	}
	start := time.Now()
	candidate := newGeneration(0, m.name, snap, s.cfg.breakerCfg()) // id 0: never serves
	if err := warmGeneration(ctx, candidate); err != nil {
		return fail("warmup", err)
	}
	warm := time.Since(start)
	gen := s.install(m, snap)
	// A successful swap implies a warm model: a server that reloaded
	// before its initial warm-up finished is ready now.
	s.ready.Store(true)
	obs.Info("serve.reloaded", "model", m.name, "generation", gen.id,
		"fingerprint", gen.fp, "warmup_seconds", warm.Seconds())
	res := ReloadResult{
		Generation:    gen.id,
		Fingerprint:   gen.fp,
		Warmup:        warm,
		WarmupSeconds: warm.Seconds(),
	}
	if m.name != s.reg.def {
		res.Model = m.name
	}
	return res, nil
}

// execute runs one admitted request against its pinned generation and
// releases the generation's in-flight registration.
func (s *Server) execute(r *batchRequest) {
	// Close the "batcher" span (queue wait + coalesce window) before the
	// classification attempts begin.
	r.span.End()
	res := s.classify(r)
	r.gen.inflight.Done()
	r.done <- res
}

// classify drives one request through the resilience ladder: route to a
// breaker-admitted replica (retrying around replica faults), and fall
// back to the degradation ladder when no replica can answer or the
// deadline is nearly spent.
func (s *Server) classify(r *batchRequest) batchResult {
	gen := r.gen
	if h := s.cfg.DegradeHeadroom; h > 0 {
		if dl, ok := r.ctx.Deadline(); ok && time.Until(dl) < h {
			if res, ok := s.degradedResult(r, "request deadline nearly exhausted in queue"); ok {
				return res
			}
		}
	}
	var lastErr error
	attempts := 0
	for attempts <= s.cfg.MaxRetries {
		rep, ok := gen.acquire()
		if !ok {
			break // every breaker open → ladder
		}
		preds, err := s.runReplica(rep, r)
		if err == nil {
			rep.br.success()
			if s.cache != nil && r.key != "" {
				s.cache.put(r.key, preds)
			}
			return batchResult{preds: preds, gen: gen.id}
		}
		if !isReplicaFault(err) {
			// The pipeline rejected the program itself; the replica is
			// healthy and the error belongs to the request.
			rep.br.success()
			return batchResult{err: err, gen: gen.id}
		}
		rep.br.failure()
		lastErr = s.noteReplicaFault(r, err)
		if r.ctx.Err() != nil {
			// The request deadline is spent; retrying cannot help.
			return batchResult{err: lastErr, gen: gen.id}
		}
		attempts++
		if attempts <= s.cfg.MaxRetries {
			obs.GetCounter("mvpar_replica_retries_total").Inc()
		}
	}
	reason := "all model replicas unhealthy"
	if lastErr != nil {
		reason = fmt.Sprintf("replica faults exhausted %d retries", s.cfg.MaxRetries)
	}
	if res, ok := s.degradedResult(r, reason); ok {
		return res
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return batchResult{err: lastErr, gen: gen.id}
}

// runReplica runs one classification attempt on rep: chaos injection
// (no-ops unless a chaos injector is armed), panic capture, and the
// "replica" stage span.
func (s *Server) runReplica(rep *replica, r *batchRequest) ([]core.LoopPrediction, error) {
	cctx, rspan := obs.StartSpan(r.ctx, "replica")
	defer rspan.End()
	var preds []core.LoopPrediction
	err := faults.Capture(func() error {
		if hit, d := faults.ChaosFire(faults.SiteReplicaSlow); hit && d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-cctx.Done():
				t.Stop()
				return cctx.Err()
			}
		}
		if hit, _ := faults.ChaosFire(faults.SiteReplicaPanic); hit {
			panic("chaos: injected replica panic")
		}
		var cerr error
		preds, cerr = rep.inf.ClassifyContext(cctx, r.name, r.src)
		return cerr
	})
	return preds, err
}

// isReplicaFault classifies an error as the replica's fault (panic,
// deadline overrun — breaker and retry territory) rather than the
// request's (parse/profile rejection).
func isReplicaFault(err error) bool {
	var pe *faults.PanicError
	return errors.As(err, &pe) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, interp.ErrCancelled)
}

// noteReplicaFault counts and attributes one replica fault, returning
// the error to surface if retries run out.
func (s *Server) noteReplicaFault(r *batchRequest, err error) error {
	var pe *faults.PanicError
	if errors.As(err, &pe) {
		obs.GetCounter("mvpar_http_panics_total").Inc()
		obs.Error("serve.panic", "program", r.name, "err", err)
		// Attribute the panic to a pipeline stage unless a nested
		// boundary already did, so the 500 body can name it.
		var se *faults.StageError
		if !errors.As(err, &se) {
			err = &faults.StageError{Program: r.name, Stage: "classify", Err: err}
		}
	}
	return err
}

// degradedResult walks the degradation ladder for one request: first a
// cache-only answer (correct by construction — the key is generation
// scoped), then a node-view-only degraded prediction. It reports false
// when neither rung can answer.
func (s *Server) degradedResult(r *batchRequest, reason string) (batchResult, bool) {
	if s.cache != nil && r.key != "" {
		if preds, ok := s.cache.get(r.key); ok {
			obs.GetCounter("mvpar_http_degraded_responses_total").Inc()
			obs.Warn("serve.degraded", "program", r.name, "rung", "cache", "reason", reason)
			return batchResult{
				preds:    preds,
				gen:      r.gen.id,
				degraded: []string{"cache-only answer: " + reason},
			}, true
		}
	}
	if dc, ok := r.gen.degrader(); ok {
		var preds []core.LoopPrediction
		err := faults.Capture(func() error {
			var cerr error
			preds, cerr = dc.ClassifyDegradedContext(r.ctx, r.name, r.src)
			return cerr
		})
		if err == nil && len(preds) > 0 {
			obs.GetCounter("mvpar_http_degraded_responses_total").Inc()
			obs.Warn("serve.degraded", "program", r.name, "rung", "node-view", "reason", reason)
			return batchResult{
				preds:    preds,
				gen:      r.gen.id,
				degraded: []string{"node-view-only prediction: " + reason},
			}, true
		}
	}
	return batchResult{}, false
}

// Warm-up retry policy for ListenAndServe: a transient failure (model
// file still syncing, page cache cold) gets retried with doubling
// backoff; a persistent one (bad -model) must surface as a non-zero
// exit so orchestration restarts or the operator notices, instead of a
// permanently not-ready process answering 503 forever.
var (
	warmupAttempts     = 3
	warmupBackoffStart = time.Second
)

// ListenAndServe binds cfg.Addr, serves until ctx is cancelled (the CLI
// passes a SIGINT/SIGTERM-bound context), then drains gracefully within
// cfg.DrainTimeout. Warm-up runs in the background so the listener is up
// immediately; readiness flips once it passes. If warm-up still fails
// after warmupAttempts tries, the server shuts down and the warm-up
// error is returned.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	obs.Info("serve.listen", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() {
		if serr := s.hs.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			errc <- serr
		}
	}()
	warmc := make(chan error, 1)
	go func() {
		backoff := warmupBackoffStart
		var werr error
		for attempt := 1; attempt <= warmupAttempts; attempt++ {
			if werr = s.Warmup(ctx); werr == nil {
				return
			}
			obs.Error("serve.warmup_failed", "attempt", attempt, "err", werr)
			if attempt == warmupAttempts {
				break
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
			backoff *= 2
		}
		// A failure during normal shutdown is not fatal — the ctx.Done
		// arm below handles that drain.
		if ctx.Err() != nil {
			return
		}
		warmc <- fmt.Errorf("serve: warm-up failed after %d attempt(s): %w", warmupAttempts, werr)
	}()
	var fatal error
	select {
	case err := <-errc:
		return err
	case fatal = <-warmc:
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if serr := s.Shutdown(dctx); fatal == nil {
		return serr
	}
	return fatal
}

// Shutdown drains the server: readiness drops immediately (/readyz
// answers 503 draining so load balancers stop routing), the listener
// keeps serving for cfg.DrainGrace so that readiness flip can
// propagate, then the HTTP layer stops accepting and waits for
// in-flight handlers, and finally the batcher finishes every admitted
// request and stops its dispatcher. Requests arriving mid-drain answer
// 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if g := s.cfg.DrainGrace; g > 0 {
		t := time.NewTimer(g)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	herr := s.hs.Shutdown(ctx)
	berr := s.bat.drain(ctx)
	if herr != nil {
		return herr
	}
	return berr
}
