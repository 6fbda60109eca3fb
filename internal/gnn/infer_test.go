package gnn

import (
	"context"
	"math/rand"
	"testing"

	"mvpar/internal/obs"
)

// TestPredictWithProbaMatchesSeparateCalls pins the single-forward
// contract: PredictWithProba must be bit-identical to calling Predict
// and PredictProba separately, in every predict mode, because the
// serving path substitutes the fused call for the pair.
func TestPredictWithProbaMatchesSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := makeSyntheticSamples(8, rng, 4)
	m := NewMVGNN(4, 4, 3)
	m.Train(samples, TrainConfig{Epochs: 3, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 3}, nil)
	for i, s := range samples {
		pred, proba := m.PredictWithProba(s)
		if want := m.Predict(s); pred != want {
			t.Fatalf("sample %d: fused class %d, Predict %d", i, pred, want)
		}
		if want := m.PredictProba(s); proba != want {
			t.Fatalf("sample %d: fused proba %v, PredictProba %v", i, proba, want)
		}
		npred, nproba := m.PredictWithProbaNodeView(s)
		if want := m.PredictNodeView(s); npred != want {
			t.Fatalf("sample %d: node-view fused class %d, PredictNodeView %d", i, npred, want)
		}
		if nproba < 0 || nproba > 1 {
			t.Fatalf("sample %d: node-view proba %v out of range", i, nproba)
		}
	}
}

// forwardInSpan runs one forward the way core's classify does: inside an
// obs "gnn.forward" stage span opened on ctx.
func forwardInSpan(ctx context.Context, s Sample, forward func(Sample) (int, float64)) {
	_, sp := obs.StartSpan(ctx, "gnn.forward")
	sp.SetAttrInt("loop", int64(s.Meta.LoopID))
	forward(s)
	sp.End()
}

// TestTracingDisabledAddsNoAllocs is the zero-overhead contract at the
// model layer: on an untraced context, a forward wrapped in its stage
// span must allocate exactly as much as the bare forward — the span
// calls must be free.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := makeSyntheticSamples(1, rng, 4)[0]
	m := NewMVGNN(4, 4, 5)
	ctx := context.Background()
	forwardInSpan(ctx, s, m.PredictWithProba) // warm activation caches
	base := testing.AllocsPerRun(50, func() { m.PredictWithProba(s) })
	traced := testing.AllocsPerRun(50, func() { forwardInSpan(ctx, s, m.PredictWithProba) })
	if traced > base {
		t.Fatalf("untraced-context prediction allocates %v/op, plain %v/op — tracing must be free when disabled", traced, base)
	}
}
