package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultModel is the registry name a single-model server (and any
// request that does not name a model) serves under.
const DefaultModel = "default"

// ErrUnknownModel reports a request against a model name the registry
// does not hold (404).
var ErrUnknownModel = errors.New("serve: unknown model")

// ModelSpec declares one registry entry at construction time: the name
// requests select it by (`POST /v1/classify?model=<name>`), the loaded
// snapshot, and an optional per-model Loader enabling its hot reload.
type ModelSpec struct {
	// Name identifies the model; letters, digits, '.', '_' and '-' only.
	Name string
	// Snapshot is the model's initial replica set.
	Snapshot Snapshot
	// Loader, when set, enables POST /v1/models/reload?model=<name> for
	// this model. Without it reload requests answer 501.
	Loader Loader
}

// model is one registry entry: a named generation chain with its own
// swap/drain lifecycle and loader.
type model struct {
	name string
	// metric is the name sanitized into a Prometheus-safe suffix for the
	// per-model metric families.
	metric string
	loader Loader

	// gen is the live generation; genSeq issues generation ids; reloadMu
	// serializes this model's hot swaps.
	gen      atomic.Pointer[generation]
	genSeq   atomic.Uint64
	reloadMu sync.Mutex
}

// registry is the immutable-after-construction set of served models.
// (Model state mutates — generations swap — but the
// name set is fixed at construction, which is what lets lookups run
// lock-free on a plain map.)
type registry struct {
	byName map[string]*model
	names  []string // sorted, default first
	def    string
}

// validModelName reports whether name is usable as a registry key.
func validModelName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// metricSuffix maps a model name onto the Prometheus name grammar
// ([a-zA-Z0-9_]) for the per-model metric families.
func metricSuffix(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// newRegistry builds the model set. The first spec is the default model
// (the one unnamed requests hit). Names must be valid and unique.
func newRegistry(specs []ModelSpec) (*registry, error) {
	if len(specs) == 0 {
		return nil, errors.New("serve: registry needs at least one model")
	}
	reg := &registry{byName: make(map[string]*model, len(specs))}
	for i, spec := range specs {
		if !validModelName(spec.Name) {
			return nil, fmt.Errorf("serve: invalid model name %q", spec.Name)
		}
		if _, dup := reg.byName[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", spec.Name)
		}
		if len(spec.Snapshot.Replicas) == 0 {
			return nil, fmt.Errorf("serve: model %q has no replicas", spec.Name)
		}
		m := &model{name: spec.Name, metric: metricSuffix(spec.Name), loader: spec.Loader}
		reg.byName[spec.Name] = m
		if i == 0 {
			reg.def = spec.Name
		}
		reg.names = append(reg.names, spec.Name)
	}
	// Stable listing order: default first, the rest alphabetical.
	rest := reg.names[1:]
	sort.Strings(rest)
	return reg, nil
}

// get resolves a request's model selector; empty means the default.
func (r *registry) get(name string) (*model, error) {
	if name == "" {
		name = r.def
	}
	m, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return m, nil
}

// all returns the models in listing order (default first).
func (r *registry) all() []*model {
	out := make([]*model, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.byName[name])
	}
	return out
}

// admit pins the caller to m's current generation by registering with
// its in-flight count. The re-check closes the swap race: if a swap
// landed between the load and the Add, the registration is undone and
// retried on the new generation, so a drain wait can never miss a
// pinned request.
func (m *model) admit() *generation {
	for {
		gen := m.gen.Load()
		gen.inflight.Add(1)
		if m.gen.Load() == gen {
			return gen
		}
		gen.inflight.Done()
	}
}
