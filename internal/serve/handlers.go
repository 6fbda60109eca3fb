package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mvpar/internal/core"
	"mvpar/internal/faults"
	"mvpar/internal/interp"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// ClassifyRequest is the POST /v1/classify body.
type ClassifyRequest struct {
	// Name labels the program in predictions, logs and the cache key.
	Name string `json:"name"`
	// Source is the MiniC program (entry function main).
	Source string `json:"source"`
	// Model selects the registry entry that answers; empty means the
	// default model. The ?model= query parameter takes precedence.
	Model string `json:"model,omitempty"`
	// Timings asks for the per-request latency breakdown: the response
	// gains trace_id and a timings span tree (handler → batcher →
	// replica → dataset stages → per-loop GNN forwards). Cache hits skip
	// the pipeline and therefore return no breakdown.
	Timings bool `json:"timings,omitempty"`
}

// Prediction is one loop's classification in the wire format.
type Prediction struct {
	LoopID   int      `json:"loop_id"`
	Func     string   `json:"func"`
	Line     int      `json:"line"`
	Parallel bool     `json:"parallel"`
	Proba    float64  `json:"proba"`
	Oracle   bool     `json:"oracle"`
	Degraded bool     `json:"degraded,omitempty"`
	Reasons  []string `json:"reasons,omitempty"`
}

// ClassifyResponse is the POST /v1/classify success body.
type ClassifyResponse struct {
	Name        string       `json:"name"`
	Predictions []Prediction `json:"predictions"`
	// Generation is the model generation that produced the answer (1 for
	// the initially loaded model, +1 per hot swap). Clients comparing
	// results across a reload can tell which weights answered.
	Generation uint64 `json:"generation"`
	// Degraded is true when any loop's prediction fell back to the node
	// view only (per-loop detail in Predictions[i].Degraded/Reasons) or
	// the whole response came from a degradation-ladder rung
	// (DegradedReasons then says which and why).
	Degraded bool `json:"degraded"`
	// DegradedReasons names the degradation-ladder rung that served the
	// response and why, e.g. "cache-only answer: all model replicas
	// unhealthy". Empty on the normal path.
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
	// Cached is true when the response was served from the LRU without
	// re-running the pipeline.
	Cached bool `json:"cached"`
	// Precision names the inference engine that answered: "float64" (the
	// bit-identity reference), "float32" (the quantized fast path) or
	// "int8" (the integer tier).
	Precision string `json:"precision"`
	// TraceID and Timings are set only when the request asked for a
	// timings breakdown (ClassifyRequest.Timings) and the pipeline ran:
	// the request's trace ID and its span tree, offsets in microseconds
	// relative to the handler span's start.
	TraceID string           `json:"trace_id,omitempty"`
	Timings []trace.SpanData `json:"timings,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Reasons carries quarantine-style context: the failing stage and
	// the captured cause for 500s, retry hints for 429/503.
	Reasons []string `json:"reasons,omitempty"`
}

// writeJSON answers with one JSON document and a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// toResponse converts predictions to the wire format. Precision defaults
// to the float64 reference tier; handlers overwrite it from the
// generation that actually answered.
func toResponse(name string, preds []core.LoopPrediction, cached bool) ClassifyResponse {
	resp := ClassifyResponse{
		Name:        name,
		Predictions: make([]Prediction, 0, len(preds)),
		Cached:      cached,
		Precision:   core.PrecisionFloat64,
	}
	for _, p := range preds {
		resp.Predictions = append(resp.Predictions, Prediction{
			LoopID:   p.LoopID,
			Func:     p.Func,
			Line:     p.Line,
			Parallel: p.Parallel,
			Proba:    p.Proba,
			Oracle:   p.Oracle,
			Degraded: p.Degraded,
			Reasons:  p.Reasons,
		})
		if p.Degraded {
			resp.Degraded = true
		}
	}
	return resp
}

// handleClassify is POST /v1/classify: admission (readiness, body
// bounds, generation pinning), generation-scoped cache lookup, batched
// execution with a per-request deadline against the pinned generation's
// replicas, and error mapping (429 shed, 503 not-ready/draining/
// no-replicas, 504 deadline, 500 captured panic, 422 programs the
// pipeline rejects).
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:   "model not ready",
			Reasons: []string{"warm-up classification has not completed; poll /readyz"},
		})
		return
	}
	var req ClassifyRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.Source == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty source"})
		return
	}
	if req.Name == "" {
		req.Name = "unnamed"
	}
	if q := r.URL.Query().Get("model"); q != "" {
		req.Model = q
	}
	m, err := s.reg.get(req.Model)
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error:   fmt.Sprintf("unknown model %q", req.Model),
			Reasons: []string{"GET /v1/models lists the served models"},
		})
		return
	}

	// Pin the request to the model's current generation: it registers
	// with the generation's in-flight count here and executes against
	// that generation's replicas even if a hot swap lands while it
	// waits. The registration is released on every exit path — cache hit
	// and submit rejection below, or by the executor once it delivers a
	// result.
	gen := m.admit()
	// Per-precision request accounting: which inference tier is about to
	// answer (float64 reference, float32 fast path or int8 integer tier).
	obs.GetCounter("mvpar_classify_requests_" + gen.prec + "_total").Inc()
	var key string
	if s.cache != nil {
		key = cacheKey(gen.key(), req.Name, req.Source)
		if preds, ok := s.cache.get(key); ok {
			gen.inflight.Done()
			obs.GetCounter("mvpar_http_cache_hits_total").Inc()
			resp := toResponse(req.Name, preds, true)
			resp.Generation = gen.id
			resp.Precision = gen.prec
			writeJSON(w, http.StatusOK, resp)
			return
		}
		obs.GetCounter("mvpar_http_cache_misses_total").Inc()
	}

	// Request tracing: in slow-capture mode (TraceSlow set) every request
	// is traced so any of them can be retained when it crosses the
	// threshold; otherwise only requests asking for a timings breakdown
	// pay for a trace. On untraced requests the spans downstream only
	// record their stage histograms, with no allocation.
	tctx := r.Context()
	var tr *trace.Trace
	if s.cfg.TraceSlow > 0 || req.Timings {
		tctx, tr = trace.New(tctx, "handler")
		tr.Root().SetAttr("program", req.Name)
		defer s.finishTrace(tr, req.Name)
	}
	ctx, cancel := context.WithTimeout(tctx, s.cfg.RequestTimeout)
	defer cancel()
	bctx, bspan := obs.StartSpan(ctx, "batcher")
	breq := &batchRequest{
		ctx:  bctx,
		name: req.Name,
		src:  req.Source,
		key:  key,
		gen:  gen,
		done: make(chan batchResult, 1),
		span: bspan,
	}
	if err := s.bat.submit(breq); err != nil {
		gen.inflight.Done()
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
				Error:   "server overloaded",
				Reasons: []string{fmt.Sprintf("admission queue holds %d requests; retry with backoff", s.cfg.MaxQueue)},
			})
		default:
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		}
		return
	}
	var respTr *trace.Trace
	if req.Timings {
		respTr = tr
	}
	select {
	case res := <-breq.done:
		s.writeResult(w, req.Name, gen.prec, res, respTr)
	case <-ctx.Done():
		// The batch job observes the same ctx and aborts at the
		// interpreter's stride check; the handler answers immediately
		// (the executor still releases the generation registration when
		// the abandoned job finishes).
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: fmt.Sprintf("classification exceeded the request deadline (%s)", s.cfg.RequestTimeout),
		})
	}
}

// writeResult maps one execution outcome to its HTTP answer. prec is the
// answering generation's precision tier; tr is non-nil only when the
// request asked for a timings breakdown; success responses then carry
// the trace ID and span tree.
func (s *Server) writeResult(w http.ResponseWriter, name, prec string, res batchResult, tr *trace.Trace) {
	err := res.err
	if err == nil {
		resp := toResponse(name, res.preds, false)
		resp.Generation = res.gen
		resp.Precision = prec
		if len(res.degraded) > 0 {
			resp.Degraded = true
			resp.DegradedReasons = res.degraded
		}
		if tr != nil {
			resp.TraceID, resp.Timings = timingsPayload(tr)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var pe *faults.PanicError
	var se *faults.StageError
	switch {
	case errors.Is(err, ErrNoReplicas):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:   "all model replicas unhealthy",
			Reasons: []string{"circuit breakers open and no degraded answer available; retry with backoff"},
		})
	case errors.As(err, &pe):
		// Quarantine-style isolation: the panicking request dies with a
		// reasoned 500, the process and its batchmates live on.
		reasons := []string{pe.Error()}
		if errors.As(err, &se) {
			reasons = append(reasons, fmt.Sprintf("stage: %s", se.Stage))
		}
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error:   "classification panicked; request quarantined",
			Reasons: reasons,
		})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, interp.ErrCancelled):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: fmt.Sprintf("classification exceeded the request deadline (%s)", s.cfg.RequestTimeout),
		})
	default:
		// The pipeline rejected the program itself (parse/lower/profile
		// error): the request, not the server, is at fault.
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
	}
}

// handleReload is POST /v1/models/reload[?model=<name>]: one atomic hot
// swap through Server.ReloadModel. 200 with the new generation on
// success, 404 for an unknown model, 500 with the rollback cause on
// failure (the previous model keeps serving), 501 when the model has no
// Loader.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
		return
	}
	name := r.URL.Query().Get("model")
	res, err := s.ReloadModel(r.Context(), name)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrUnknownModel):
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error:   fmt.Sprintf("unknown model %q", name),
			Reasons: []string{"GET /v1/models lists the served models"},
		})
	case errors.Is(err, ErrNoLoader):
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{
			Error:   "no model loader configured",
			Reasons: []string{"start the server with a model checkpoint (-model) to enable hot reload"},
		})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error:   "reload rolled back; previous model still serving",
			Reasons: []string{err.Error(), fmt.Sprintf("serving generation %d", s.Generation())},
		})
	}
}

// ModelStatus is one registry entry in the GET /v1/models listing and
// the /healthz models array.
type ModelStatus struct {
	Name        string `json:"name"`
	Default     bool   `json:"default,omitempty"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Precision   string `json:"precision"`
	// Replicas is the replica count; ActiveReplicas how many take traffic
	// (always every replica; kept for wire compatibility); HealthyReplicas
	// how many have a non-open breaker.
	Replicas        int `json:"replicas"`
	ActiveReplicas  int `json:"active_replicas"`
	HealthyReplicas int `json:"healthy_replicas"`
	// Reloadable reports whether the model has a Loader (POST
	// /v1/models/reload?model=<name> works).
	Reloadable bool `json:"reloadable"`
}

// modelStatuses snapshots every registry entry.
func (s *Server) modelStatuses() []ModelStatus {
	out := make([]ModelStatus, 0, len(s.reg.names))
	for _, m := range s.reg.all() {
		gen := m.gen.Load()
		out = append(out, ModelStatus{
			Name:            m.name,
			Default:         m.name == s.reg.def,
			Generation:      gen.id,
			Fingerprint:     gen.fp,
			Precision:       gen.prec,
			Replicas:        len(gen.reps),
			ActiveReplicas:  len(gen.reps),
			HealthyReplicas: gen.healthy(),
			Reloadable:      m.loader != nil,
		})
	}
	return out
}

// handleModels is GET /v1/models: the registry listing with each
// model's generation, fingerprint and replica state.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use GET"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"default": s.reg.def,
		"models":  s.modelStatuses(),
	})
}

// handleHealthz is liveness: 200 as long as the process serves. The
// top-level generation and fingerprint are the default model's (the
// single-model wire format, kept for monitors that predate the
// registry); the models array carries every entry's identity.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	gen := s.defaultModel().gen.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"generation":  gen.id,
		"fingerprint": gen.fp,
		"models":      s.modelStatuses(),
	})
}

// handleReadyz is readiness with a state machine: "starting" (503)
// until the warm-up classification passes, "draining" (503) once
// Shutdown begins — the signal load balancers key on during the drain
// grace window — "degraded" (200: still routable, the degradation
// ladder answers) while any model has every replica breaker open, and
// "ready" (200) otherwise. The top-level generation and replica counts
// are the default model's.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	gen := s.defaultModel().gen.Load()
	healthy := gen.healthy()
	anyUnhealthy := false
	for _, m := range s.reg.all() {
		if m.gen.Load().healthy() == 0 {
			anyUnhealthy = true
		}
	}
	state := "ready"
	code := http.StatusOK
	switch {
	case s.draining.Load():
		state, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		state, code = "starting", http.StatusServiceUnavailable
	case anyUnhealthy:
		state = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"ready":            code == http.StatusOK,
		"state":            state,
		"generation":       gen.id,
		"healthy_replicas": healthy,
		"replicas":         len(gen.reps),
	})
}
