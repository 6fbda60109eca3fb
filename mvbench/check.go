package main

import (
	"context"
	"fmt"
	"sync"

	"mvpar/internal/core"
	"mvpar/internal/deps"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// checkReport summarizes the output check of one run.
type checkReport struct {
	Distinct         int `json:"distinct_sources"`
	Mismatches       int `json:"mismatches"`        // 200s whose answer differs from in-process
	OracleMismatches int `json:"oracle_mismatches"` // 200s whose oracle differs from deps.Analyze
	NonOK            int `json:"non_200"`           // non-200 answers, shed requests included
	Dropped          int `json:"dropped"`           // requests the open loop never sent
	Failed           int `json:"failed"`            // requests failing any of the above
}

// expected is the in-process answer for one (model, name, source).
type expected struct {
	preds  []core.LoopPrediction
	oracle map[int]bool // loop ID -> deps.Analyze verdict
	err    error
}

type srcKey struct{ model, name, source string }

// checkOutputs re-classifies every distinct request of results in
// process, one classify call at a time, on the classifier of the same
// model and tier, and cross-checks every answer's oracle fields against
// deps.Analyze verdicts computed here. It marks each failing result's
// bad field and returns the tally.
func checkOutputs(ctx context.Context, m *models, results []*result) (checkReport, error) {
	var rep checkReport
	want := map[srcKey]*expected{}
	var order []srcKey
	for _, r := range results {
		if !r.ok() {
			continue
		}
		k := srcKey{r.req.Model, r.req.Name, r.req.Source}
		if _, seen := want[k]; !seen {
			want[k] = nil
			order = append(order, k)
		}
	}
	rep.Distinct = len(order)
	// The classifier is safe for concurrent use and bit-identical to a
	// serial call, so the distinct sources are spread over `clients`
	// workers; each classify call itself runs alone on its replica.
	var mu sync.Mutex
	work := make(chan srcKey)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				e := &expected{}
				e.preds, e.err = m.cls[k.model].ClassifyContext(ctx, k.name, k.source)
				if e.err == nil {
					e.oracle, e.err = oracleVerdicts(ctx, k.name, k.source)
				}
				mu.Lock()
				want[k] = e
				mu.Unlock()
			}
		}()
	}
	for _, k := range order {
		work <- k
	}
	close(work)
	wg.Wait()
	for _, r := range results {
		switch {
		case r.dropped:
			rep.Dropped++
			r.bad = "dropped by the generator"
		case !r.ok():
			rep.NonOK++
			r.bad = fmt.Sprintf("HTTP status %d", r.status)
		default:
			e := want[srcKey{r.req.Model, r.req.Name, r.req.Source}]
			if e.err != nil {
				return rep, fmt.Errorf("in-process classify of %s: %w", r.req.Name, e.err)
			}
			if why := compareAnswer(r, e.preds); why != "" {
				rep.Mismatches++
				r.bad = why
			} else if why := compareOracle(r, e.oracle); why != "" {
				rep.OracleMismatches++
				r.bad = why
			}
		}
		if r.bad != "" {
			rep.Failed++
		}
	}
	return rep, nil
}

// compareAnswer checks a served answer against the in-process one: the
// same loops, labels and probabilities (exactly: JSON round-trips
// float64), oracle and degraded flags, at the model's tier.
func compareAnswer(r *result, preds []core.LoopPrediction) string {
	got := r.resp.Predictions
	if r.resp.Precision != r.req.Tier() {
		return fmt.Sprintf("answered at %s, want %s", r.resp.Precision, r.req.Tier())
	}
	if len(got) != len(preds) {
		return fmt.Sprintf("%d loops, want %d", len(got), len(preds))
	}
	for i, p := range preds {
		g := got[i]
		if g.LoopID != p.LoopID || g.Parallel != p.Parallel || g.Proba != p.Proba ||
			g.Oracle != p.Oracle || g.Degraded != p.Degraded {
			return fmt.Sprintf("loop %d: got parallel=%v proba=%v oracle=%v, want parallel=%v proba=%v oracle=%v",
				p.LoopID, g.Parallel, g.Proba, g.Oracle, p.Parallel, p.Proba, p.Oracle)
		}
	}
	return ""
}

// compareOracle checks each answered loop's oracle field against the
// benchmark's own dependence analysis.
func compareOracle(r *result, verdicts map[int]bool) string {
	for _, p := range r.resp.Predictions {
		v, ok := verdicts[p.LoopID]
		if !ok || v != p.Oracle {
			return fmt.Sprintf("loop %d: oracle=%v, deps.Analyze says %v (known=%v)", p.LoopID, p.Oracle, v, ok)
		}
	}
	return ""
}

// oracleVerdicts profiles a source with deps.Analyze and returns each
// loop's parallelizability verdict.
func oracleVerdicts(ctx context.Context, name, src string) (map[int]bool, error) {
	ast, err := minic.Parse(name, src)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return nil, err
	}
	res, _, err := deps.AnalyzeContext(ctx, prog, "main", interp.Limits{})
	if err != nil {
		return nil, err
	}
	out := make(map[int]bool, len(res.Verdicts))
	for id, v := range res.Verdicts {
		out[id] = v.Parallelizable
	}
	return out, nil
}
