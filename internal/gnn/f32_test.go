package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// trainedParityModel trains a small model on the synthetic star-vs-chain
// task so the float32-vs-float64 comparison runs on realistic (trained,
// saturating-tanh) weights rather than random initialization.
func trainedParityModel(t *testing.T) (*MVGNN, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	samples := makeSyntheticSamples(24, rng, 4)
	m := NewMVGNN(4, 4, 13)
	m.Train(samples, TrainConfig{Epochs: 6, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 13}, nil)
	return m, samples
}

// TestPredictWithProbaF32Parity is the unit-level accuracy-parity gate:
// on every seed sample the float32 fast path must return the same label
// as the float64 reference and a probability within 1e-4, across the
// fused head and the node-view (degraded) path.
func TestPredictWithProbaF32Parity(t *testing.T) {
	m, samples := trainedParityModel(t)
	for i, s := range samples {
		c64, p64 := m.PredictWithProba(s)
		c32, p32 := m.PredictWithProbaF32(s)
		if c32 != c64 {
			t.Fatalf("sample %d: float32 label %d, float64 label %d (proba %v vs %v)", i, c32, c64, p32, p64)
		}
		if math.Abs(p32-p64) > 1e-4 {
			t.Fatalf("sample %d: float32 proba %v drifts from float64 %v by %v", i, p32, p64, math.Abs(p32-p64))
		}
		n64c, n64p := m.PredictWithProbaNodeView(s)
		n32c, n32p := m.PredictWithProbaF32NodeView(s)
		if n32c != n64c {
			t.Fatalf("sample %d: node-view float32 label %d, float64 %d", i, n32c, n64c)
		}
		if math.Abs(n32p-n64p) > 1e-4 {
			t.Fatalf("sample %d: node-view proba drift %v", i, math.Abs(n32p-n64p))
		}
	}
}

// TestPredictWithProbaF32PredictModes exercises the head selection: the
// quantized engine must follow the same predictMode as the float64 path.
func TestPredictWithProbaF32PredictModes(t *testing.T) {
	m, samples := trainedParityModel(t)
	for _, mode := range []int{0, 1, 2} {
		m.predictMode = mode
		m.f32 = nil // re-quantize with the new mode
		for i, s := range samples {
			c64, p64 := m.PredictWithProba(s)
			c32, p32 := m.PredictWithProbaF32(s)
			if c32 != c64 || math.Abs(p32-p64) > 1e-4 {
				t.Fatalf("mode %d sample %d: float32 (%d, %v) vs float64 (%d, %v)", mode, i, c32, p32, c64, p64)
			}
		}
	}
}

// TestMVGNNF32ReplicateSharesWeights pins the replica contract: replicas
// share the quantized weights (no re-quantization) but own their scratch,
// and agree exactly with the source replica.
func TestMVGNNF32ReplicateSharesWeights(t *testing.T) {
	m, samples := trainedParityModel(t)
	q := m.QuantizeF32()
	rep := q.Replicate()
	if rep.w != q.w {
		t.Fatal("replica does not share quantized weights")
	}
	if rep.arena == q.arena {
		t.Fatal("replica shares the scratch arena")
	}
	for i, s := range samples {
		c1, p1 := q.PredictWithProba(s)
		c2, p2 := rep.PredictWithProba(s)
		if c1 != c2 || p1 != p2 {
			t.Fatalf("sample %d: replica (%d, %v) differs from source (%d, %v)", i, c2, p2, c1, p1)
		}
	}
}

// TestPredictWithProbaF32SteadyStateAllocFree: after warm-up, the
// quantized forward must allocate nothing per prediction — the property
// BenchmarkForwardF32's allocs/op gate defends in CI.
func TestPredictWithProbaF32SteadyStateAllocFree(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	for i := 0; i < 3; i++ {
		m.PredictWithProbaF32(s)
	}
	if n := testing.AllocsPerRun(20, func() { m.PredictWithProbaF32(s) }); n != 0 {
		t.Fatalf("float32 predict allocates %v/op in steady state, want 0", n)
	}
	ctx := context.Background()
	forwardInSpan(ctx, s, m.PredictWithProbaF32)
	if n := testing.AllocsPerRun(20, func() { forwardInSpan(ctx, s, m.PredictWithProbaF32) }); n != 0 {
		t.Fatalf("traced float32 predict allocates %v/op on untraced context, want 0", n)
	}
}

// TestQuantizeF32IsSnapshot: quantization copies the weights; mutating
// the float64 model afterwards must not leak into an existing mirror.
func TestQuantizeF32IsSnapshot(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	q := m.QuantizeF32()
	c1, p1 := q.PredictWithProba(s)
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 10
		}
	}
	c2, p2 := q.PredictWithProba(s)
	if c1 != c2 || p1 != p2 {
		t.Fatalf("quantized mirror changed after mutating float64 weights: (%d, %v) -> (%d, %v)", c1, p1, c2, p2)
	}
}
