package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/nn"
	"mvpar/internal/obs"
)

// Classifier is a reusable inference handle over a trained pipeline. It
// pins the encoder state a classification needs — the inst2vec embedding,
// the anonymous-walk space and the encode configuration — together with
// the trained model, so repeated Classify calls rebuild no vocabulary or
// walk space per invocation (the per-call cost is profiling and encoding
// the submitted program only).
//
// Unlike Pipeline, a Classifier is safe for concurrent use: every call
// borrows a worker-private model replica (shared weights, private
// activation caches — see gnn.MVGNN.Replicate) from an internal free
// list, so the inference server can fan a batch of requests out across
// workers and still produce results bit-identical to serial
// Pipeline.ClassifySource.
type Classifier struct {
	cfg   dataset.Config // frozen single-program encode config
	model *gnn.MVGNN     // prototype; calls run on replicas

	// precision selects the inference engine: PrecisionFloat64 (the
	// bit-identity reference), PrecisionFloat32 (the quantized fast path,
	// parity-gated by `mvpar parity` rather than bit-identical) or
	// PrecisionInt8 (the integer tier, licensed at a documented non-zero
	// drift budget by `mvpar parity -precision int8`).
	precision string

	mu       sync.Mutex
	replicas []*gnn.MVGNN // free list of idle replicas
}

// Precision tiers of the inference engine.
const (
	// PrecisionFloat64 is the default: the float64 forward pass that is
	// bit-identical to training and to serial Pipeline.ClassifySource.
	PrecisionFloat64 = "float64"
	// PrecisionFloat32 is the quantized fast path: float32 cache-blocked
	// kernels with fused activations. Labels and probabilities track the
	// float64 reference within the accuracy-parity gate's tolerance.
	PrecisionFloat32 = "float32"
	// PrecisionInt8 is the integer tier: per-channel int8 weights, int32
	// accumulators, dequantize-then-table-tanh epilogues. Licensed at a
	// documented non-zero drift budget (`mvpar parity -precision int8`).
	PrecisionInt8 = "int8"
)

// precisionTiers enumerates the valid tiers, reference first — the order
// ParsePrecision's error message reports them in.
var precisionTiers = []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8}

// ParsePrecision validates a -precision flag value; empty means float64.
// Input is normalized (surrounding whitespace trimmed, case folded) so
// flag values like " Float32" or "INT8" resolve; an unknown tier errors
// with the full list of valid ones.
func ParsePrecision(s string) (string, error) {
	norm := strings.ToLower(strings.TrimSpace(s))
	if norm == "" {
		return PrecisionFloat64, nil
	}
	for _, tier := range precisionTiers {
		if norm == tier {
			return tier, nil
		}
	}
	return "", fmt.Errorf("core: unknown precision %q (valid tiers: %s)", s, strings.Join(precisionTiers, ", "))
}

// Classifier returns an inference handle bound to the pipeline's current
// model and encoder state. The pipeline must have been trained (or
// prepared and loaded) first. Handles are snapshots: after retraining or
// LoadModel (which replaces the weight storage replicas are bound to),
// take a new handle.
func (p *Pipeline) Classifier() (*Classifier, error) {
	return p.ClassifierPrecision(PrecisionFloat64)
}

// ClassifierPrecision is Classifier with an explicit precision tier. For
// PrecisionFloat32 and PrecisionInt8 the model is quantized once here
// (replicas share the quantized weights); float64 handles are unchanged
// from Classifier.
func (p *Pipeline) ClassifierPrecision(precision string) (*Classifier, error) {
	prec, err := ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	if p.Model == nil || p.Dataset == nil {
		return nil, fmt.Errorf("core: pipeline is untrained")
	}
	switch prec {
	case PrecisionFloat32:
		p.Model.PrepareF32()
	case PrecisionInt8:
		p.Model.PrepareI8()
	}
	// Encode with the pipeline's settings, reusing the trained inst2vec
	// space and walk space so the features live in the model's input
	// geometry and no encoder state is rebuilt per call. Always strict:
	// errors in the user's one program must surface, not quarantine into
	// an empty prediction list.
	cfg := p.Opts.Data
	cfg.Variants = 1
	cfg.Embedding = p.Dataset.Embedding
	cfg.Space = p.Dataset.Space
	cfg.Strict = true
	cfg.Ctx = nil
	return &Classifier{cfg: cfg, model: p.Model, precision: prec}, nil
}

// ClassifierSet is a named family of inference handles over one trained
// pipeline — typically one handle per precision tier, all sharing the
// model weights and encoder state. It is the multi-model serving
// layer's way to expose several views of one checkpoint (e.g. "default"
// at float64 next to "fast" at int8) without loading the weights twice.
// The set is immutable after construction; each handle is independently
// safe for concurrent use.
type ClassifierSet struct {
	byName map[string]*Classifier
	names  []string // construction order
}

// ClassifierSet builds one handle per entry of tiers (name → precision
// tier, empty meaning float64), in the order given. Names must be
// non-empty and unique.
func (p *Pipeline) ClassifierSet(names []string, tiers map[string]string) (*ClassifierSet, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: classifier set needs at least one name")
	}
	set := &ClassifierSet{byName: make(map[string]*Classifier, len(names))}
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("core: classifier set entry with empty name")
		}
		if _, dup := set.byName[name]; dup {
			return nil, fmt.Errorf("core: duplicate classifier set entry %q", name)
		}
		c, err := p.ClassifierPrecision(tiers[name])
		if err != nil {
			return nil, fmt.Errorf("core: classifier %q: %w", name, err)
		}
		set.byName[name] = c
		set.names = append(set.names, name)
	}
	return set, nil
}

// Get returns the named handle.
func (s *ClassifierSet) Get(name string) (*Classifier, bool) {
	c, ok := s.byName[name]
	return c, ok
}

// Names lists the handles in construction order.
func (s *ClassifierSet) Names() []string {
	return append([]string(nil), s.names...)
}

// Precision reports the handle's inference tier ("float64", "float32" or
// "int8").
func (c *Classifier) Precision() string {
	if c.precision == "" {
		return PrecisionFloat64
	}
	return c.precision
}

// acquire pops an idle model replica, creating one when the list is empty.
func (c *Classifier) acquire() *gnn.MVGNN {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.replicas); n > 0 {
		r := c.replicas[n-1]
		c.replicas = c.replicas[:n-1]
		return r
	}
	return c.model.Replicate()
}

// release returns a replica to the free list.
func (c *Classifier) release(m *gnn.MVGNN) {
	c.mu.Lock()
	c.replicas = append(c.replicas, m)
	c.mu.Unlock()
}

// Classify profiles a MiniC program (entry function main) and classifies
// every loop with the trained model.
func (c *Classifier) Classify(name, src string) ([]LoopPrediction, error) {
	return c.ClassifyContext(context.Background(), name, src)
}

// ClassifyContext is Classify with cancellation: ctx flows into the
// interpreter's stride check during profiling, so a request deadline
// aborts a runaway program within milliseconds. Loops whose structural
// view could not be sampled (walk budget exceeded) are not dropped: they
// get a node-view-only prediction — the paper's Static-GNN geometry —
// with Degraded set, the causes recorded in Reasons, and the event
// counted by mvpar_degraded_predictions_total.
func (c *Classifier) ClassifyContext(ctx context.Context, name, src string) ([]LoopPrediction, error) {
	return c.classifyWith(ctx, c.cfg, name, src)
}

// ClassifyDegradedContext is the serving layer's degradation-ladder
// rung: it classifies every loop from the node view only, skipping
// structural-view walk sampling entirely. A one-sample walk budget
// forces every loop's structural view over budget, so dataset.Build
// keeps the loops with the all-zero structural fallback and
// Record.Degraded set — the paper's Static-GNN geometry — and the
// shared classify path marks each prediction Degraded with the cause.
// It is substantially cheaper than a full classification (no sampling,
// no structural forward work of consequence), which is what makes it a
// usable fallback when replicas are unhealthy or the request deadline
// is nearly spent.
func (c *Classifier) ClassifyDegradedContext(ctx context.Context, name, src string) ([]LoopPrediction, error) {
	cfg := c.cfg
	cfg.WalkParams.MaxSamples = 1
	obs.GetCounter("mvpar_degraded_mode_classifications_total").Inc()
	return c.classifyWith(ctx, cfg, name, src)
}

// Fingerprint identifies this handle's model weights and encode
// configuration: two classifiers with equal fingerprints answer
// identically on every input. The serving layer keys its response cache
// and generation identity on it, so a hot-swapped model can never serve
// a prediction computed by the previous weights.
func (c *Classifier) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, nn.FingerprintParams(c.model.Params()))
	cfg := c.cfg
	fmt.Fprintf(h, "|v%d|w%+v|l%d|e%+v|s%d|t%d|n%d|p%s",
		cfg.Variants, cfg.WalkParams, cfg.WalkLen, cfg.EmbedCfg, cfg.Seed, cfg.MaxSteps, cfg.MaxTokens,
		c.Precision())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tierForwards returns a precision tier's full and node-view forward
// passes as method expressions, so a classify picks them once.
func tierForwards(precision string) (full, nodeView func(*gnn.MVGNN, gnn.Sample) (int, float64)) {
	switch precision {
	case PrecisionFloat32:
		return (*gnn.MVGNN).PredictWithProbaF32, (*gnn.MVGNN).PredictWithProbaF32NodeView
	case PrecisionInt8:
		return (*gnn.MVGNN).PredictWithProbaI8, (*gnn.MVGNN).PredictWithProbaI8NodeView
	}
	return (*gnn.MVGNN).PredictWithProba, (*gnn.MVGNN).PredictWithProbaNodeView
}

// classifyWith is the shared classify body: profile and encode the
// program under cfg, then predict every loop on a borrowed replica.
// Each stage is an obs span: it always feeds the stage histogram, and
// when ctx carries a request trace it also nests in the trace as
// classify → dataset.build → … and classify → gnn.forward, one forward
// span per loop.
func (c *Classifier) classifyWith(ctx context.Context, cfg dataset.Config, name, src string) ([]LoopPrediction, error) {
	model := c.acquire()
	defer c.release(model)
	ctx, cspan := obs.StartSpan(ctx, "classify")
	cspan.SetAttr("program", name)
	defer cspan.End()
	cfg.Ctx = ctx
	d, _, err := dataset.Build([]bench.App{{Name: name, Suite: "user", Source: src}}, cfg)
	if err != nil {
		return nil, err
	}
	precision := c.Precision()
	forward, forwardNodeView := tierForwards(precision)
	var preds []LoopPrediction
	for _, rec := range d.Records {
		_, fspan := obs.StartSpan(ctx, "gnn.forward")
		fspan.SetAttrInt("loop", int64(rec.Meta.LoopID))
		fspan.SetAttr("precision", precision)
		var pred int
		var proba float64
		if len(rec.Degraded) > 0 {
			fspan.SetAttr("view", "node")
			pred, proba = forwardNodeView(model, rec.Sample)
		} else {
			pred, proba = forward(model, rec.Sample)
		}
		fspan.End()
		lp := LoopPrediction{
			LoopID:   rec.Meta.LoopID,
			Func:     rec.Func,
			Line:     rec.Line,
			Parallel: pred == 1,
			Proba:    proba,
			Oracle:   rec.Verdict.Parallelizable,
			Reasons:  rec.Verdict.Reasons,
		}
		if len(rec.Degraded) > 0 {
			obs.GetCounter("mvpar_degraded_predictions_total").Inc()
			obs.Warn("classify.degraded", "program", name, "loop", rec.Meta.LoopID,
				"reasons", fmt.Sprint(rec.Degraded))
			lp.Degraded = true
			lp.Reasons = append(append([]string(nil), lp.Reasons...), rec.Degraded...)
			lp.Reasons = append(lp.Reasons, "prediction from node view only")
		}
		// A record can carry a loop ID absent from the parsed source (e.g.
		// if lowering and parsing ever disagree about loop identity); a
		// silent zero-value provenance would look real, so annotate the
		// prediction and warn instead.
		if rec.Func == "" {
			lp.Func = "(unknown)"
			lp.Reasons = append(lp.Reasons, fmt.Sprintf("no source loop info for loop %d", rec.Meta.LoopID))
			obs.Warn("classify.missing_loop_info", "program", name, "loop", rec.Meta.LoopID)
		}
		preds = append(preds, lp)
	}
	return preds, nil
}
