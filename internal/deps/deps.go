// Package deps performs dynamic data-dependence analysis over the
// instrumentation stream emitted by internal/interp, the analogue of
// DiscoPoP's phase-1 dependence extraction. It produces:
//
//   - statement-level dependence edges (RAW/WAR/WAW, loop-carried or not),
//     which become the edges of the program execution graph, and
//   - a per-loop parallelizability verdict (the oracle label): a loop is
//     DoALL-parallelizable when every loop-carried dependence is either a
//     recognized reduction or removable by privatization.
//
// The analyzer is an online shadow-memory pass: per address it keeps the
// last write and the reads since that write, each with a snapshot of the
// dynamic loop stack, so every dependence can be attributed to the unique
// loop that carries it (the outermost shared loop instance whose iteration
// numbers differ).
package deps

import (
	"context"
	"fmt"
	"sort"

	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/obs"
)

// Kind is a dependence kind.
type Kind int

// Dependence kinds.
const (
	RAW Kind = iota // read after write (true/flow dependence)
	WAR             // write after read (anti dependence)
	WAW             // write after write (output dependence)
)

func (k Kind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	default:
		return "WAW"
	}
}

// Edge is a statement-level dependence: the statement DstStmt depends on
// SrcStmt. Carrier is the loop ID carrying the dependence, or 0 with
// Carried false for a loop-independent dependence.
type Edge struct {
	Kind      Kind
	SrcStmt   int
	DstStmt   int
	Carried   bool
	Carrier   int
	Reduction bool // both endpoints are reduction-tagged with the same kind
	// Distance is the smallest iteration distance observed for a carried
	// dependence (1 = adjacent iterations); 0 for loop-independent edges.
	Distance int64
}

// Verdict is the oracle decision for one loop.
type Verdict struct {
	LoopID         int
	Parallelizable bool
	HasReduction   bool     // parallelizable via a recognized reduction
	Reasons        []string // human-readable blocking reasons (empty if parallelizable)
	Detail         Detail
}

// Detail exposes the individual evidence classes behind a verdict so
// alternative decision rules (the tool emulators in internal/tools) can be
// derived from the same measurement.
type Detail struct {
	LCRawBad    bool // non-reduction loop-carried RAW present
	LCWarBad    bool // exposed-read loop-carried WAR present
	LCWawArray  bool // loop-carried WAW on array elements present
	HasRed      bool // reduction-paired carried RAW present
	RedPoisoned bool // a reduction location is also accessed outside the reduction
}

// Result is the outcome of analyzing one execution.
type Result struct {
	Edges    []Edge
	Verdicts map[int]Verdict
	// Iterations and Instances mirror the interpreter's loop statistics.
	Iterations map[int]int64
	Instances  map[int]int64
}

// accessRec is a snapshot of one dynamic access kept in shadow memory.
type accessRec struct {
	stmt    int
	red     ir.RedOp
	array   bool
	frames  []frameSnap
	exposed uint64 // bit i set: read not preceded by a same-iteration write of frames[i]
}

type frameSnap struct {
	id       int
	instance int64
	iter     int64
}

// cell is the shadow state for one address.
type cell struct {
	lastWrite *accessRec
	reads     []accessRec
}

// maxReadsPerCell bounds the reads kept between two writes of the same
// address; beyond it the oldest are dropped (ring). With the corpus's
// small kernels the cap is rarely reached, and any surviving cross-
// iteration read still flags the WAR.
const maxReadsPerCell = 256

type edgeKey struct {
	kind     Kind
	src, dst int
	carrier  int
	carried  bool
}

// Analyzer implements interp.Tracer.
type Analyzer struct {
	shadow map[uint64]*cell
	edges  map[edgeKey]*Edge

	// Per-loop blocking state, keyed by loop ID then address.
	lcRawBad    map[int]map[uint64]bool
	lcRawRed    map[int]map[uint64]ir.RedOp
	lcWarBad    map[int]map[uint64]bool
	lcWawArray  map[int]map[uint64]bool
	nonRedTouch map[int]map[uint64]bool
	ctrlAddrs   map[int]map[uint64]bool

	iterations map[int]int64
	instances  map[int]int64
}

// NewAnalyzer returns an empty analyzer ready to trace one execution.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		shadow:      map[uint64]*cell{},
		edges:       map[edgeKey]*Edge{},
		lcRawBad:    map[int]map[uint64]bool{},
		lcRawRed:    map[int]map[uint64]ir.RedOp{},
		lcWarBad:    map[int]map[uint64]bool{},
		lcWawArray:  map[int]map[uint64]bool{},
		nonRedTouch: map[int]map[uint64]bool{},
		ctrlAddrs:   map[int]map[uint64]bool{},
		iterations:  map[int]int64{},
		instances:   map[int]int64{},
	}
}

func mark2(m map[int]map[uint64]bool, loop int, addr uint64) {
	inner := m[loop]
	if inner == nil {
		inner = map[uint64]bool{}
		m[loop] = inner
	}
	inner[addr] = true
}

// LoopEnter implements interp.Tracer.
func (a *Analyzer) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	a.instances[id]++
	if hasCtrl {
		mark2(a.ctrlAddrs, id, ctrlAddr)
	}
}

// LoopIter implements interp.Tracer.
func (a *Analyzer) LoopIter(id int, instance, iter int64) { a.iterations[id]++ }

// LoopExit implements interp.Tracer.
func (a *Analyzer) LoopExit(id int, instance, iters int64) {}

// snapshot copies the live loop stack.
func snapshot(frames []interp.LoopFrame) []frameSnap {
	s := make([]frameSnap, len(frames))
	for i, f := range frames {
		s[i] = frameSnap{id: f.ID, instance: f.Instance, iter: f.Iter}
	}
	return s
}

// carrierIndex finds the index of the loop carrying a dependence between
// two accesses: the first shared loop instance whose iterations differ.
// It returns -1 when the accesses are iteration-local everywhere.
func carrierIndex(a, b []frameSnap) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].instance != b[i].instance {
			return -1
		}
		if a[i].iter != b[i].iter {
			return i
		}
	}
	return -1
}

func (a *Analyzer) isCtrl(loop int, addr uint64) bool {
	return a.ctrlAddrs[loop][addr]
}

func (a *Analyzer) recordEdge(kind Kind, src, dst *accessRec, carrier int, carried bool, reduction bool, distance int64) {
	key := edgeKey{kind: kind, src: src.stmt, dst: dst.stmt, carrier: carrier, carried: carried}
	e, ok := a.edges[key]
	if !ok {
		a.edges[key] = &Edge{
			Kind: kind, SrcStmt: src.stmt, DstStmt: dst.stmt,
			Carried: carried, Carrier: carrier, Reduction: reduction,
			Distance: distance,
		}
		return
	}
	if carried && distance > 0 && (e.Distance == 0 || distance < e.Distance) {
		e.Distance = distance
	}
}

// carriedDistance returns the absolute iteration distance at index ci.
func carriedDistance(a, b []frameSnap, ci int) int64 {
	d := b[ci].iter - a[ci].iter
	if d < 0 {
		d = -d
	}
	return d
}

// Access implements interp.Tracer.
func (a *Analyzer) Access(acc *interp.Access) {
	c := a.shadow[acc.Addr]
	if c == nil {
		c = &cell{}
		a.shadow[acc.Addr] = c
	}
	rec := accessRec{
		stmt:   acc.StmtID,
		red:    acc.Red,
		array:  false,
		frames: snapshot(acc.Frames),
	}
	// Array-ness travels via the Access (set by the interpreter for
	// subscripted instructions).
	rec.array = acc.Array

	// Every non-reduction access inside a loop poisons reduction locations.
	if acc.Red == ir.RedNone {
		for _, f := range rec.frames {
			if !a.isCtrl(f.id, acc.Addr) {
				mark2(a.nonRedTouch, f.id, acc.Addr)
			}
		}
	}

	if !acc.Write {
		a.onRead(acc.Addr, c, &rec)
		if len(c.reads) >= maxReadsPerCell {
			copy(c.reads, c.reads[1:])
			c.reads = c.reads[:len(c.reads)-1]
		}
		c.reads = append(c.reads, rec)
		return
	}
	a.onWrite(acc.Addr, c, &rec)
	c.lastWrite = &rec
	c.reads = c.reads[:0]
}

func (a *Analyzer) onRead(addr uint64, c *cell, rec *accessRec) {
	w := c.lastWrite
	if w == nil {
		// Never written: exposed with respect to every enclosing loop.
		rec.exposed = ^uint64(0)
		return
	}
	ci := carrierIndex(w.frames, rec.frames)
	// Exposure per enclosing loop: the read is exposed w.r.t. loop level i
	// unless the last write happened in the same iteration of that loop.
	for i := range rec.frames {
		sameIter := i < len(w.frames) &&
			w.frames[i].instance == rec.frames[i].instance &&
			w.frames[i].iter == rec.frames[i].iter
		if !sameIter {
			rec.exposed |= 1 << uint(i)
		}
	}
	if ci < 0 {
		a.recordEdge(RAW, w, rec, 0, false, false, 0)
		return
	}
	loop := rec.frames[ci].id
	redPair := w.red != ir.RedNone && w.red == rec.red
	a.recordEdge(RAW, w, rec, loop, true, redPair, carriedDistance(w.frames, rec.frames, ci))
	if a.isCtrl(loop, addr) {
		return
	}
	if redPair {
		inner := a.lcRawRed[loop]
		if inner == nil {
			inner = map[uint64]ir.RedOp{}
			a.lcRawRed[loop] = inner
		}
		inner[addr] = rec.red
	} else {
		mark2(a.lcRawBad, loop, addr)
	}
}

func (a *Analyzer) onWrite(addr uint64, c *cell, rec *accessRec) {
	if w := c.lastWrite; w != nil {
		ci := carrierIndex(w.frames, rec.frames)
		if ci < 0 {
			a.recordEdge(WAW, w, rec, 0, false, false, 0)
		} else {
			loop := rec.frames[ci].id
			redPair := w.red != ir.RedNone && w.red == rec.red
			a.recordEdge(WAW, w, rec, loop, true, redPair, carriedDistance(w.frames, rec.frames, ci))
			if !a.isCtrl(loop, addr) && !redPair && rec.array {
				// Carried output dependences on array elements change the
				// final memory image under parallel execution; scalars are
				// privatizable.
				mark2(a.lcWawArray, loop, addr)
			}
		}
	}
	for i := range c.reads {
		r := &c.reads[i]
		ci := carrierIndex(r.frames, rec.frames)
		if ci < 0 {
			a.recordEdge(WAR, r, rec, 0, false, false, 0)
			continue
		}
		loop := rec.frames[ci].id
		redPair := r.red != ir.RedNone && r.red == rec.red
		a.recordEdge(WAR, r, rec, loop, true, redPair, carriedDistance(r.frames, rec.frames, ci))
		if a.isCtrl(loop, addr) || redPair {
			continue
		}
		if r.exposed&(1<<uint(ci)) != 0 {
			// The earlier iteration read a value the later iteration
			// overwrites, and that read was not satisfied by its own
			// iteration: privatization cannot remove this dependence.
			mark2(a.lcWarBad, loop, addr)
		}
	}
}

// Finalize computes the per-loop verdicts. loops lists every loop ID of
// the program (including loops that never executed, which are reported as
// parallelizable=false with reason "never executed" only when
// requireExecution is true; otherwise they default to parallelizable).
func (a *Analyzer) Finalize(prog *ir.Program) *Result {
	res := &Result{
		Verdicts:   map[int]Verdict{},
		Iterations: a.iterations,
		Instances:  a.instances,
	}
	for key := range a.edges {
		res.Edges = append(res.Edges, *a.edges[key])
	}
	sort.Slice(res.Edges, func(i, j int) bool {
		ei, ej := res.Edges[i], res.Edges[j]
		if ei.SrcStmt != ej.SrcStmt {
			return ei.SrcStmt < ej.SrcStmt
		}
		if ei.DstStmt != ej.DstStmt {
			return ei.DstStmt < ej.DstStmt
		}
		if ei.Kind != ej.Kind {
			return ei.Kind < ej.Kind
		}
		return ei.Carrier < ej.Carrier
	})

	for _, id := range prog.LoopIDs() {
		v := Verdict{LoopID: id, Parallelizable: true}
		reason := func(format string, n int) {
			v.Parallelizable = false
			noun := "locations"
			if n == 1 {
				noun = "location"
			}
			v.Reasons = append(v.Reasons, fmt.Sprintf(format, n, noun))
		}
		if n := len(a.lcRawBad[id]); n > 0 {
			v.Detail.LCRawBad = true
			reason("loop-carried RAW on %d %s", n)
		}
		if n := len(a.lcWarBad[id]); n > 0 {
			v.Detail.LCWarBad = true
			reason("loop-carried WAR (exposed read) on %d %s", n)
		}
		if n := len(a.lcWawArray[id]); n > 0 {
			v.Detail.LCWawArray = true
			reason("loop-carried WAW on %d array %s", n)
		}
		poisoned := 0
		for addr := range a.lcRawRed[id] {
			v.Detail.HasRed = true
			if a.nonRedTouch[id][addr] {
				poisoned++
			} else {
				v.HasReduction = true
			}
		}
		if poisoned > 0 {
			v.Detail.RedPoisoned = true
			reason("reduction accumulator read/written outside the reduction at %d %s", poisoned)
		}
		if !v.Parallelizable {
			v.HasReduction = false
		}
		sort.Strings(v.Reasons)
		res.Verdicts[id] = v
	}
	return res
}

// Analyze profiles prog's entry function and returns the dependence result
// together with the interpreter statistics. Execution budgets default per
// interp.Limits; pass interp.Limits{} for the pipeline-wide defaults.
func Analyze(prog *ir.Program, entry string, limits interp.Limits) (*Result, interp.Stats, error) {
	return AnalyzeContext(context.Background(), prog, entry, limits)
}

// AnalyzeContext is Analyze with cancellation: a done ctx aborts the
// profiled execution at the interpreter's instruction-stride check with
// an error wrapping both interp.ErrCancelled and ctx.Err(). An explicit
// limits.Ctx takes precedence over ctx.
func AnalyzeContext(ctx context.Context, prog *ir.Program, entry string, limits interp.Limits) (*Result, interp.Stats, error) {
	if limits.Ctx == nil && ctx != nil && ctx != context.Background() {
		limits.Ctx = ctx
	}
	var sp obs.Span
	limits.Ctx, sp = obs.StartSpan(limits.Ctx, "deps.analyze")
	defer sp.End()
	an := NewAnalyzer()
	mt := &interp.MetricsTracer{}
	it := interp.New(prog, interp.MultiTracer{an, mt}, limits)
	stats, err := it.Run(entry)
	mt.Flush()
	if err != nil {
		return nil, stats, err
	}
	res := an.Finalize(prog)
	recordResultStats(prog.Name, res)
	return res, stats, nil
}

// recordResultStats publishes one analysis' dependence-edge and verdict
// counts to the metrics registry.
func recordResultStats(program string, res *Result) {
	var raw, war, waw, carried int64
	for _, e := range res.Edges {
		switch e.Kind {
		case RAW:
			raw++
		case WAR:
			war++
		default:
			waw++
		}
		if e.Carried {
			carried++
		}
	}
	par, seq := 0, 0
	for _, v := range res.Verdicts {
		if v.Parallelizable {
			par++
		} else {
			seq++
		}
	}
	obs.GetCounter("mvpar_deps_analyses_total").Inc()
	obs.GetCounter("mvpar_deps_raw_edges_total").Add(raw)
	obs.GetCounter("mvpar_deps_war_edges_total").Add(war)
	obs.GetCounter("mvpar_deps_waw_edges_total").Add(waw)
	obs.GetCounter("mvpar_deps_carried_edges_total").Add(carried)
	obs.GetCounter("mvpar_deps_parallel_loops_total").Add(int64(par))
	obs.GetCounter("mvpar_deps_sequential_loops_total").Add(int64(seq))
	obs.Debug("deps.analyze", "program", program,
		"raw", raw, "war", war, "waw", waw, "carried", carried,
		"parallel", par, "sequential", seq)
}
