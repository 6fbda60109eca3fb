package gnn

import (
	"context"
	"math"
	"testing"
)

// int8 unit-level drift budget on the deterministic trained fixture: the
// quantized tier may flip a small number of near-boundary samples and its
// probabilities drift more than float32's, but both stay bounded. These
// are tighter than the corpus-level `mvpar parity -precision int8` budget
// because the fixture is tiny and fixed-seed.
const (
	i8ProbaTol = 0.08 // absolute P(class=1) drift vs float64
	i8MaxFlips = 2    // label flips allowed across the 24-sample fixture
)

// TestPredictWithProbaI8Parity is the unit-level drift gate for the int8
// tier: across the seed fixture the fused and node-view paths must stay
// within the probability tolerance, with at most i8MaxFlips label flips
// per path (flips must co-occur with near-0.5 probabilities).
func TestPredictWithProbaI8Parity(t *testing.T) {
	m, samples := trainedParityModel(t)
	fusedFlips, nodeFlips := 0, 0
	for i, s := range samples {
		c64, p64 := m.PredictWithProba(s)
		c8, p8 := m.PredictWithProbaI8(s)
		if d := math.Abs(p8 - p64); d > i8ProbaTol {
			t.Fatalf("sample %d: int8 proba %v drifts from float64 %v by %v", i, p8, p64, d)
		}
		if c8 != c64 {
			fusedFlips++
			if math.Abs(p64-0.5) > i8ProbaTol {
				t.Fatalf("sample %d: int8 flipped a confident label: int8 (%d, %v) vs float64 (%d, %v)", i, c8, p8, c64, p64)
			}
		}
		n64c, n64p := m.PredictWithProbaNodeView(s)
		n8c, n8p := m.PredictWithProbaI8NodeView(s)
		if d := math.Abs(n8p - n64p); d > i8ProbaTol {
			t.Fatalf("sample %d: node-view int8 proba drift %v", i, d)
		}
		if n8c != n64c {
			nodeFlips++
			if math.Abs(n64p-0.5) > i8ProbaTol {
				t.Fatalf("sample %d: node-view int8 flipped a confident label", i)
			}
		}
	}
	if fusedFlips > i8MaxFlips || nodeFlips > i8MaxFlips {
		t.Fatalf("int8 flips %d (fused) / %d (node) exceed budget %d", fusedFlips, nodeFlips, i8MaxFlips)
	}
}

// TestPredictWithProbaI8PredictModes exercises head selection: the int8
// engine must follow the same predictMode as the float64 path, within the
// same drift budget.
func TestPredictWithProbaI8PredictModes(t *testing.T) {
	m, samples := trainedParityModel(t)
	for _, mode := range []int{0, 1, 2} {
		m.predictMode = mode
		m.i8 = nil // re-quantize with the new mode
		flips := 0
		for i, s := range samples {
			c64, p64 := m.PredictWithProba(s)
			c8, p8 := m.PredictWithProbaI8(s)
			if math.Abs(p8-p64) > i8ProbaTol {
				t.Fatalf("mode %d sample %d: int8 (%d, %v) drifts from float64 (%d, %v)", mode, i, c8, p8, c64, p64)
			}
			if c8 != c64 {
				flips++
			}
		}
		if flips > i8MaxFlips {
			t.Fatalf("mode %d: %d flips exceed budget %d", mode, flips, i8MaxFlips)
		}
	}
}

// TestMVGNNI8ReplicateSharesWeights pins the replica contract: replicas
// share the quantized weights (no re-quantization) but own both scratch
// arenas, and agree exactly with the source replica (the integer forward
// is deterministic).
func TestMVGNNI8ReplicateSharesWeights(t *testing.T) {
	m, samples := trainedParityModel(t)
	q := m.QuantizeI8()
	rep := q.Replicate()
	if rep.w != q.w {
		t.Fatal("replica does not share quantized weights")
	}
	if rep.arena == q.arena || rep.iarena == q.iarena {
		t.Fatal("replica shares a scratch arena")
	}
	for i, s := range samples {
		c1, p1 := q.PredictWithProba(s)
		c2, p2 := rep.PredictWithProba(s)
		if c1 != c2 || p1 != p2 {
			t.Fatalf("sample %d: replica (%d, %v) differs from source (%d, %v)", i, c2, p2, c1, p1)
		}
	}
}

// TestMVGNNReplicateSharesI8 pins the serving fan-out path: PrepareI8 on
// the prototype makes MVGNN.Replicate hand replicas a weight-sharing int8
// mirror instead of each replica re-quantizing lazily.
func TestMVGNNReplicateSharesI8(t *testing.T) {
	m, samples := trainedParityModel(t)
	m.PrepareI8()
	r := m.Replicate()
	if r.i8 == nil {
		t.Fatal("replica of a prepared prototype has no int8 mirror")
	}
	if r.i8.w != m.i8.w {
		t.Fatal("replica int8 mirror does not share quantized weights")
	}
	s := samples[0]
	c1, p1 := m.PredictWithProbaI8(s)
	c2, p2 := r.PredictWithProbaI8(s)
	if c1 != c2 || p1 != p2 {
		t.Fatalf("replica int8 predict (%d, %v) differs from prototype (%d, %v)", c2, p2, c1, p1)
	}
}

// TestPredictWithProbaI8SteadyStateAllocFree: after warm-up, the int8
// forward must allocate nothing per prediction — the property
// BenchmarkForwardI8's allocs/op gate defends in CI.
func TestPredictWithProbaI8SteadyStateAllocFree(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	for i := 0; i < 3; i++ {
		m.PredictWithProbaI8(s)
	}
	if n := testing.AllocsPerRun(20, func() { m.PredictWithProbaI8(s) }); n != 0 {
		t.Fatalf("int8 predict allocates %v/op in steady state, want 0", n)
	}
	ctx := context.Background()
	forwardInSpan(ctx, s, m.PredictWithProbaI8)
	if n := testing.AllocsPerRun(20, func() { forwardInSpan(ctx, s, m.PredictWithProbaI8) }); n != 0 {
		t.Fatalf("traced int8 predict allocates %v/op on untraced context, want 0", n)
	}
}

// TestQuantizeI8IsSnapshot: quantization copies the weights; mutating the
// float64 model afterwards must not leak into an existing mirror.
func TestQuantizeI8IsSnapshot(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	q := m.QuantizeI8()
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
