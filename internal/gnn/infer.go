package gnn

import (
	"mvpar/internal/nn"
	"mvpar/internal/tensor"
)

// PredictWithProba returns the predicted class and P(class=1) for one
// sample from a single forward pass of the head selected during
// training. It is bit-identical to calling Predict and PredictProba
// separately (the forward pass is deterministic, so both read the same
// logits) at half the inference cost — the pairing every serving-path
// classification wants.
func (m *MVGNN) PredictWithProba(s Sample) (int, float64) {
	switch m.predictMode {
	case 1:
		return classFrom(m.NodeView.Forward(s.Node))
	case 2:
		return classFrom(m.StructView.Forward(s.Struct))
	}
	return classFrom(m.Forward(s))
}

// PredictWithProbaNodeView is PredictWithProba restricted to the node
// view's own head — the degraded-prediction path used when a sample has
// no usable structural view (the paper's Static-GNN geometry).
func (m *MVGNN) PredictWithProbaNodeView(s Sample) (int, float64) {
	return classFrom(m.NodeView.Forward(s.Node))
}

// classFrom reduces one logits row to (argmax class, P(class=1)).
func classFrom(logits *tensor.Matrix) (int, float64) {
	return nn.Predict(logits)[0], nn.Probabilities(logits).At(0, 1)
}

// quantized returns the lazily built float32 inference replica. The first
// call snapshots the current weights (see QuantizeF32); the model must be
// frozen by then. Safe only on a goroutine-private model/replica, like
// every other forward entry point.
func (m *MVGNN) quantized() *MVGNNF32 {
	if m.f32 == nil {
		m.f32 = m.QuantizeF32()
	}
	return m.f32
}

// PrepareF32 performs the one-time model quantization eagerly, so later
// Replicate calls share the quantized weights instead of each replica
// lazily re-quantizing on its first float32 prediction. Call it once on
// the frozen prototype before fanning out serving replicas.
func (m *MVGNN) PrepareF32() { m.quantized() }

// PredictWithProbaF32 is PredictWithProba on the float32 fast path: the
// quantized forward engine with cache-blocked kernels and fused
// activations. Labels and probabilities track the float64 path within the
// accuracy-parity gate's tolerance (`mvpar parity`), not bit-identically.
func (m *MVGNN) PredictWithProbaF32(s Sample) (int, float64) {
	return m.quantized().PredictWithProba(s)
}

// PredictWithProbaF32NodeView is the float32 degraded path (node view
// only), mirroring PredictWithProbaNodeView.
func (m *MVGNN) PredictWithProbaF32NodeView(s Sample) (int, float64) {
	return m.quantized().PredictWithProbaNodeView(s)
}

// quantizedI8 returns the lazily built int8 inference replica, with the
// same freeze-before-first-use contract as quantized().
func (m *MVGNN) quantizedI8() *MVGNNI8 {
	if m.i8 == nil {
		m.i8 = m.QuantizeI8()
	}
	return m.i8
}

// PrepareI8 performs the one-time int8 model quantization eagerly, so
// later Replicate calls share the quantized weights instead of each
// replica lazily re-quantizing on its first int8 prediction. Call it once
// on the frozen prototype before fanning out serving replicas.
func (m *MVGNN) PrepareI8() { m.quantizedI8() }

// PredictWithProbaI8 is PredictWithProba on the int8 tier: per-channel
// quantized weights, int32 accumulators, dequantize-then-table-tanh
// epilogues. Labels and probabilities track the float64 path within the
// int8 parity gate's documented drift budget (`mvpar parity -precision
// int8`) — looser than float32's, and never bit-identical.
func (m *MVGNN) PredictWithProbaI8(s Sample) (int, float64) {
	return m.quantizedI8().PredictWithProba(s)
}

// PredictWithProbaI8NodeView is the int8 degraded path (node view only),
// mirroring PredictWithProbaNodeView.
func (m *MVGNN) PredictWithProbaI8NodeView(s Sample) (int, float64) {
	return m.quantizedI8().PredictWithProbaNodeView(s)
}
