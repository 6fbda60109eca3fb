package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/cu"
	"mvpar/internal/dataset"
	"mvpar/internal/deps"
	"mvpar/internal/gnn"
	"mvpar/internal/graph"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/obs"
	"mvpar/internal/peg"
	"mvpar/internal/serve"
	"mvpar/internal/tools"
)

// call is one timed Inference.ClassifyContext call inside the server.
type call struct {
	model, name string
	start, end  time.Time
	used        bool // matched to a response
}

// callLog collects the timed calls of every wrapped replica.
type callLog struct {
	mu    sync.Mutex
	calls []*call
}

func (l *callLog) add(c *call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// timedInference is the serve.Inference the traced run hands the server:
// a core.Classifier whose ClassifyContext calls are timed. It forwards
// the optional surfaces the server looks for (fingerprint, precision,
// degraded mode), so the server behaves as with the bare classifier.
type timedInference struct {
	cls   *core.Classifier
	model string
	log   *callLog
}

func (t *timedInference) ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	start := time.Now()
	preds, err := t.cls.ClassifyContext(ctx, name, src)
	t.log.add(&call{model: t.model, name: name, start: start, end: time.Now()})
	return preds, err
}

func (t *timedInference) ClassifyDegradedContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	return t.cls.ClassifyDegradedContext(ctx, name, src)
}

func (t *timedInference) Fingerprint() string { return t.cls.Fingerprint() }
func (t *timedInference) Precision() string   { return t.cls.Precision() }

// servedReplicas matches `mvpar serve`'s default replica count.
const servedReplicas = 4

// timedSnapshot builds a model's replica set as `mvpar serve` does (one
// classifier handle per replica) with every handle wrapped.
func timedSnapshot(pl *core.Pipeline, tier, model string, log *callLog) (serve.Snapshot, error) {
	var snap serve.Snapshot
	for i := 0; i < servedReplicas; i++ {
		cls, err := pl.ClassifierPrecision(tier)
		if err != nil {
			return snap, err
		}
		snap.Fingerprint = cls.Fingerprint()
		snap.Replicas = append(snap.Replicas, &timedInference{cls: cls, model: model, log: log})
	}
	return snap, nil
}

// replayCount is how many distinct sources of the workload's sequence the
// traced run replays through the stage functions.
var replayCount = map[string]int{wlMissSmall: 120, wlMissDeep: 40, wlHitMix: 120}

// runTraced serves the workload from an in-process server over wrapped
// classifiers, then replays its sources stage by stage.
func runTraced(ctx context.Context, gen *Generator, window time.Duration, rec *runRecord) (output, error) {
	m, err := trainModels(ctx)
	if err != nil {
		return output{}, err
	}
	log := &callLog{}
	var specs []serve.ModelSpec
	for _, s := range []struct{ name, model, tier string }{
		{serve.DefaultModel, "", core.PrecisionFloat64},
		{fastModel, fastModel, core.PrecisionInt8},
	} {
		snap, err := timedSnapshot(m.pl, s.tier, s.model, log)
		if err != nil {
			return output{}, err
		}
		specs = append(specs, serve.ModelSpec{Name: s.name, Snapshot: snap})
	}
	srv, err := serve.NewMulti(specs, serve.Config{})
	if err != nil {
		return output{}, err
	}
	if err := srv.Warmup(ctx); err != nil {
		return output{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return output{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(served)
	}()
	lg := newLoadGen("http://"+ln.Addr().String(), gen, shapeOf(gen.workload))
	ph, err := phases(ctx, lg, window, func() {})
	var probe []*result
	if err == nil {
		probe = lg.probeHits(ctx, ph.meas)
	}
	hs.Shutdown(ctx)
	<-served
	srv.Shutdown(ctx)
	if err != nil {
		return output{}, err
	}
	all := append(ph.all(), probe...)
	check, err := checkOutputs(ctx, m, all)
	if err != nil {
		return output{}, err
	}
	rec.Check = check
	rec.CrossCheck = crossCheck(ph.meas, ph.before, ph.after)
	windowMetrics(ph.meas, window, ph.elapsed, rec) // fills the record's error and degraded shares
	vals := serveMetrics(ph.meas, probe, log, ph.before, ph.after)
	vals["trace.overhead_share"] = ratio(wrapperCost().Seconds(), vals["core.classify_ms.p50"]/1000)
	replay, err := replaySources(ctx, m, gen, replayCount[gen.workload])
	if err != nil {
		return output{}, err
	}
	for k, v := range replay {
		vals[k] = v
	}
	rec.Samples["replayed"] = replayCount[gen.workload]
	rec.Samples["hit_probe"] = len(probe)
	metrics, missing := collect(perLayer, vals)
	if len(missing) > 0 {
		return output{}, fmt.Errorf("unmeasured metrics %v", missing)
	}
	printSummary(rec, metrics)
	return output{Correct: check.Failed == 0, Attempted: len(all), Failed: check.Failed, Metrics: metrics}, nil
}

// hitProbe is how many answered misses of the window the traced run
// resubmits afterwards, one at a time. The cache still holds them (it
// keeps the last 128 inserts), so every workload has hits to time, the
// miss workloads included.
const hitProbe = 64

// probeHits resubmits the window's last hitProbe answered misses.
func (l *loadGen) probeHits(ctx context.Context, meas []*result) []*result {
	var out []*result
	for k := len(meas) - 1; k >= 0 && len(out) < hitProbe; k-- {
		if r := meas[k]; r.ok() && !r.resp.Cached {
			res := &result{req: r.req}
			l.send(ctx, res, l.body(r.req))
			res.due = res.sent
			out = append(out, res)
		}
	}
	return out
}

// serveMetrics derives the serve and core latency metrics of the window
// by matching each answered miss to the timed classify call it caused.
// Hit round trips come from the window and from the hit probe after it.
func serveMetrics(meas, probe []*result, log *callLog, before, after map[string]float64) map[string]float64 {
	byKey := map[string][]*call{}
	for _, c := range log.calls {
		k := c.model + "|" + c.name
		byKey[k] = append(byKey[k], c)
	}
	for _, cs := range byKey {
		sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	}
	var admission, overhead, hit, classify sample
	var hits, answered, shed float64
	for _, r := range meas {
		if r.status == http.StatusTooManyRequests {
			shed++
		}
		if !r.ok() {
			continue
		}
		answered++
		rt := r.done.Sub(r.sent)
		if r.resp.Cached {
			hits++
			hit = append(hit, ms(rt))
			continue
		}
		for _, c := range byKey[r.req.Model+"|"+r.req.Name] {
			if c.used || c.start.Before(r.sent) {
				continue
			}
			c.used = true
			d := c.end.Sub(c.start)
			admission = append(admission, ms(c.start.Sub(r.sent)))
			overhead = append(overhead, ms(rt-d))
			classify = append(classify, ms(d))
			break
		}
	}
	for _, r := range probe {
		if r.ok() && r.resp.Cached {
			hit = append(hit, ms(r.done.Sub(r.sent)))
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	return map[string]float64{
		"serve.admission_ms.p50": admission.pct(50),
		"serve.admission_ms.p99": admission.pct(99),
		"serve.overhead_ms.p50":  overhead.pct(50),
		"serve.hit_ms.p50":       hit.pct(50),
		"serve.hit_ms.p99":       hit.pct(99),
		"serve.cache_hit_ratio":  ratio(hits, answered),
		"serve.batch_size.mean":  ratio(delta("mvpar_http_batch_size_sum"), delta("mvpar_http_batch_size_count")),
		"serve.shed_share":       ratio(shed, float64(len(meas))),
		"core.classify_ms.p50":   classify.pct(50),
		"core.classify_ms.p99":   classify.pct(99),
	}
}

// wrapperCost measures what timing one call adds: two clock reads and
// one locked append.
func wrapperCost() time.Duration {
	const n = 20000
	l := &callLog{}
	start := time.Now()
	for k := 0; k < n; k++ {
		s := time.Now()
		l.add(&call{name: "x", start: s, end: time.Now()})
	}
	return time.Since(start) / n
}

// measured is one timed stage call with the allocations it made.
type measured struct {
	d      time.Duration
	allocs uint64
	bytes  uint64
}

// measure times f and counts its heap allocations. Nothing else runs
// during the replay, so the process-wide counters are f's own.
func measure(f func()) measured {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	return measured{d: d, allocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc}
}

// add accumulates another measurement of the same stage.
func (s *measured) add(m measured) {
	s.d += m.d
	s.allocs += m.allocs
	s.bytes += m.bytes
}

// replaySources replays the first n distinct requests of the workload
// serially through the public stage functions, then through
// dataset.Build, both forward tiers and Classifier.ClassifyContext, and
// returns the per-request stage metrics.
func replaySources(ctx context.Context, m *models, gen *Generator, n int) (map[string]float64, error) {
	cfg := m.encodeConfig()
	rep := m.pl.Model.Replicate()
	var parse, lower, static, analyze, pegb, walk, build, fwd, fwdF64, fwdI8, classify measured
	var profile, encode time.Duration
	var steps, loops, nodes, samples int64
	seen := map[string]bool{}
	runtime.GC()
	for i := int64(0); len(seen) < n; i++ {
		r := gen.Request(i)
		if seen[r.Model+"|"+r.Name] {
			continue
		}
		seen[r.Model+"|"+r.Name] = true
		var (
			ast  *minic.Program
			prog *ir.Program
			res  *deps.Result
			st   interp.Stats
			err  error
		)
		parse.add(measure(func() { ast, err = minic.Parse(r.Name, r.Source) }))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Name, err)
		}
		lower.add(measure(func() { prog, err = ir.Lower(ast) }))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Name, err)
		}
		static.add(measure(func() { tools.AnalyzeStatic(ast) }))
		analyze.add(measure(func() {
			res, st, err = deps.AnalyzeContext(ctx, prog, "main", interp.Limits{MaxSteps: cfg.MaxSteps})
		}))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Name, err)
		}
		steps += st.Steps
		var subs []*peg.SubPEG
		pegb.add(measure(func() {
			variant := ir.Variant(prog, 0)
			pg := peg.Build(variant, cu.Build(variant), res)
			for _, id := range variant.LoopIDs() {
				subs = append(subs, pg.Extract(id))
			}
		}))
		graphs := make([]*graph.Directed, len(subs))
		for k, sub := range subs {
			graphs[k] = modelGraph(sub)
			nodes += int64(graphs[k].NumNodes())
			samples += int64(graphs[k].NumNodes()) * int64(cfg.WalkParams.Gamma)
		}
		walk.add(measure(func() {
			for k, g := range graphs {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
				if _, werr := cfg.Space.NodeDistributionsBudget(g, cfg.WalkParams, rng); werr != nil && err == nil {
					err = werr
				}
			}
		}))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Name, err)
		}
		var d *dataset.Dataset
		spans := obs.StageTimings()
		build.add(measure(func() {
			d, _, err = dataset.Build([]bench.App{{Name: r.Name, Suite: "user", Source: r.Source}}, cfg)
		}))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Name, err)
		}
		after := obs.StageTimings()
		profile += after["dataset.profile"] - spans["dataset.profile"]
		encode += after["dataset.encode"] - spans["dataset.encode"]
		loops += int64(len(d.Records))
		f64 := measure(func() { forwardAll(rep, d.Records, false) })
		i8 := measure(func() { forwardAll(rep, d.Records, true) })
		fwdF64.add(f64)
		fwdI8.add(i8)
		if r.Tier() == core.PrecisionInt8 {
			fwd.add(i8)
		} else {
			fwd.add(f64)
		}
		classify.add(measure(func() { _, err = m.cls[r.Model].ClassifyContext(ctx, r.Name, r.Source) }))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.Name, err)
		}
	}
	per := float64(n)
	msPer := func(s measured) float64 { return ms(s.d) / per }
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), classify.d.Seconds()) }
	staged := parse.d + lower.d + static.d + analyze.d + pegb.d + walk.d
	residual := classify.d - build.d - fwd.d
	return map[string]float64{
		"core.classify_allocs":   float64(classify.allocs) / per,
		"core.classify_alloc_kb": float64(classify.bytes) / 1024 / per,
		"core.residual_ms":       ms(residual) / per,
		"dataset.build_ms":       msPer(build),
		"dataset.profile_ms":     ms(profile) / per,
		"dataset.encode_ms":      ms(encode) / per,
		"minic.parse_ms":         msPer(parse),
		"ir.lower_ms":            msPer(lower),
		"tools.static_ms":        msPer(static),
		"deps.analyze_ms":        msPer(analyze),
		"peg.build_ms":           msPer(pegb),
		"walks.sample_ms":        msPer(walk),
		"gnn.forward_us.f64":     float64(fwdF64.d.Microseconds()) / float64(loops),
		"gnn.forward_us.i8":      float64(fwdI8.d.Microseconds()) / float64(loops),
		"interp.steps":           float64(steps) / per,
		"deps.ns_per_step":       ratio(float64(analyze.d.Nanoseconds()), float64(steps)),
		"gnn.loops":              float64(loops) / per,
		"peg.nodes":              float64(nodes) / per,
		"walks.samples":          float64(samples) / per,
		"deps.analyze.allocs":    float64(analyze.allocs) / per,
		"walks.sample.allocs":    float64(walk.allocs) / per,
		"dataset.build.allocs":   float64(build.allocs) / per,
		"gnn.forward.allocs":     float64(fwd.allocs) / per,
		"minic.parse.share":      share(parse.d),
		"ir.lower.share":         share(lower.d),
		"tools.static.share":     share(static.d),
		"deps.analyze.share":     share(analyze.d),
		"peg.build.share":        share(pegb.d),
		"walks.sample.share":     share(walk.d),
		"dataset.other.share":    share(build.d - staged),
		"gnn.forward.share":      share(fwd.d),
		"core.residual.share":    share(residual),
	}, nil
}

// forwardAll runs the model forward over every record at one tier, the
// way Classifier.ClassifyContext does.
func forwardAll(rep *gnn.MVGNN, recs []*dataset.Record, i8 bool) {
	for _, rec := range recs {
		switch {
		case i8 && len(rec.Degraded) > 0:
			rep.PredictWithProbaI8NodeView(rec.Sample)
		case i8:
			rep.PredictWithProbaI8(rec.Sample)
		case len(rec.Degraded) > 0:
			rep.PredictWithProbaNodeView(rec.Sample)
		default:
			rep.PredictWithProba(rec.Sample)
		}
	}
}

// modelGraph is the graph walk sampling runs on: the sub-PEG with
// carried dependence kinds merged into their base kinds, as
// dataset.Build builds it.
func modelGraph(sub *peg.SubPEG) *graph.Directed {
	g := graph.New(sub.G.NumNodes())
	for _, e := range sub.G.Edges() {
		kind := e.Kind
		switch kind {
		case peg.EdgeRAWCarried:
			kind = peg.EdgeRAW
		case peg.EdgeWARCarried:
			kind = peg.EdgeWAR
		case peg.EdgeWAWCarried:
			kind = peg.EdgeWAW
		}
		if !g.HasEdgeKind(e.From, e.To, kind) {
			g.AddEdge(e.From, e.To, kind)
		}
	}
	return g
}
