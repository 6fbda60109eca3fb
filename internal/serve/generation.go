package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mvpar/internal/core"
)

// DegradedInference is the optional degraded-mode surface of an
// Inference: a cheaper, node-view-only classification the server falls
// back to when every replica is unhealthy or the request deadline is
// nearly spent. *core.Classifier implements it.
type DegradedInference interface {
	ClassifyDegradedContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error)
}

// Fingerprinter is the optional identity surface of an Inference; the
// server keys caches and generation identity on it. *core.Classifier
// implements it.
type Fingerprinter interface {
	Fingerprint() string
}

// Precisioner is the optional precision surface of an Inference: which
// inference engine ("float64", "float32" or "int8") answers its
// predictions. *core.Classifier implements it; implementations without
// it are reported as float64 (the bit-identity default).
type Precisioner interface {
	Precision() string
}

// Snapshot is one loaded model as the server sees it: the inference
// handles requests fan out over (each one an independent
// circuit-breaking failure domain) plus the identity of the weights and
// encode configuration. A Loader produces one per reload.
type Snapshot struct {
	// Replicas are the inference handles of this model; len(Replicas)
	// defines the generation's failure domains. They may share weight
	// storage (core.Classifier replicas do) but must each be safe for
	// concurrent use.
	Replicas []Inference
	// Fingerprint identifies the weights + encode config; it becomes part
	// of every cache key so a swapped model can never serve predictions
	// computed by previous weights. Empty is allowed (the generation id
	// still separates cache namespaces).
	Fingerprint string
}

// snapshotOf wraps a single Inference into an n-replica snapshot: the
// slots share the handle but keep independent breakers, so a fault
// streak on one slot routes traffic around it while the others probe.
func snapshotOf(inf Inference, n int) Snapshot {
	if n <= 0 {
		n = 1
	}
	snap := Snapshot{Replicas: make([]Inference, n)}
	for i := range snap.Replicas {
		snap.Replicas[i] = inf
	}
	if fp, ok := inf.(Fingerprinter); ok {
		snap.Fingerprint = fp.Fingerprint()
	}
	return snap
}

// replica is one circuit-breaking failure domain of a generation.
type replica struct {
	id  int
	inf Inference
	br  *breaker
}

// generation is one live model: an immutable replica set plus the
// in-flight accounting that lets a hot swap drain it. Requests are
// pinned to the generation that was current when they were admitted and
// execute against it even if a swap lands mid-flight; the old
// generation's drain completes when its last pinned request finishes.
type generation struct {
	id    uint64
	model string // registry name of the model this generation serves
	fp    string
	prec  string // inference precision tier of the replicas
	reps  []*replica

	// inflight counts requests pinned to this generation (admitted but
	// not yet answered). The swap path waits on it to declare the
	// generation drained.
	inflight sync.WaitGroup
	// rr is the round-robin cursor of acquire.
	rr atomic.Uint64
}

func newGeneration(id uint64, modelName string, snap Snapshot, bcfg breakerConfig) *generation {
	g := &generation{id: id, model: modelName, fp: snap.Fingerprint, prec: "float64"}
	for i, inf := range snap.Replicas {
		g.reps = append(g.reps, &replica{id: i, inf: inf, br: newBreaker(bcfg, i)})
	}
	if len(snap.Replicas) > 0 {
		if p, ok := snap.Replicas[0].(Precisioner); ok {
			g.prec = p.Precision()
		}
	}
	return g
}

// key is the generation's cache-key namespace: model name, id and
// fingerprint, so neither a reload (new id), a changed config (new
// fingerprint) nor another registry entry that happens to share weights
// can ever surface a prediction computed under a different identity.
func (g *generation) key() string {
	return fmt.Sprintf("m:%s|g%d:%s", g.model, g.id, g.fp)
}

// acquire picks the next replica whose breaker admits a request,
// scanning round-robin from a shared cursor. It reports false when every
// breaker refuses — the all-unhealthy state the degradation ladder
// handles.
func (g *generation) acquire() (*replica, bool) {
	n := len(g.reps)
	start := g.rr.Add(1)
	for i := 0; i < n; i++ {
		rep := g.reps[(start+uint64(i))%uint64(n)]
		if rep.br.allow() {
			return rep, true
		}
	}
	return nil, false
}

// healthy counts replicas whose breaker is not open.
func (g *generation) healthy() int {
	n := 0
	for _, rep := range g.reps {
		if rep.br.currentState() != breakerOpen {
			n++
		}
	}
	return n
}

// degrader returns the first replica implementing the degraded-mode
// surface, breaker state ignored: degraded classification skips the
// expensive path that was failing, so even a tripped replica may serve
// it as a last resort.
func (g *generation) degrader() (DegradedInference, bool) {
	for _, rep := range g.reps {
		if d, ok := rep.inf.(DegradedInference); ok {
			return d, true
		}
	}
	return nil, false
}
