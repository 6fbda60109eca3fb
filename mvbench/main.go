// Command mvbench is the repository's benchmark: it drives the shipped
// `mvpar serve` over loopback with one generated workload, checks every
// answer, and prints the benchmark's metrics as one JSON line.
//
//	mvbench -server <mvpar binary> -workload miss-small -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it starts the server binary, measures set-up, then one
// warm-up phase and one measured window, and prints the end-to-end
// metrics. With -trace 1 it serves the same workload from an in-process
// server whose classifiers are wrapped in a timing layer, replays the
// workload's sources through the pipeline's stage functions, and prints
// the per-layer metrics. WORKLOADS.md explains the workloads.
//
//	mvbench -compare <record> <record>
//
// compares two run records and refuses when their machines differ.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// warmup is the unmeasured phase before the window: it fills the cache
// (hit-mix) and lets lazy set-up in the server finish.
const warmup = time.Second

// setupRuns is how many times a run starts the server to measure
// set-up; the last start serves the load.
const setupRuns = 3

// output is the benchmark's last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: miss-small, miss-deep or hit-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics against the server binary; 1: per-layer metrics from the traced run")
	server := flag.String("server", "", "path of the mvpar binary to serve (-trace 0)")
	records := flag.String("records", ".bench_build/records", "directory the run record is written to")
	compare := flag.Bool("compare", false, "compare the two run records given as arguments")
	flag.Parse()
	// The load generator shares the CPUs with the server; collecting its
	// garbage less often keeps it out of the way of what is measured.
	debug.SetGCPercent(400)
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two run records"))
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seed < 0 || *seed >= maxSeed {
		fatal(fmt.Errorf("-seed must be in [0, 2^32)"))
	}
	gen, err := NewGenerator(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	rec := newRecord(*workload, *seed, *seconds, *traced)
	window := time.Duration(*seconds) * time.Second
	ctx := context.Background()
	var out output
	switch *traced {
	case 0:
		if *server == "" {
			fatal(fmt.Errorf("-trace 0 needs -server"))
		}
		out, err = runEndToEnd(ctx, *server, gen, window, rec)
	case 1:
		out, err = runTraced(ctx, gen, window, rec)
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fatal(err)
	}
	rec.Result = out
	if err := rec.write(*records); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mvbench:", err)
	os.Exit(1)
}

// phases runs the warm-up phase and the measured window, scraping
// /metrics on both sides of the window. between runs after the warm-up
// and before the window (it starts the peak-RSS sampler).
func phases(ctx context.Context, lg *loadGen, window time.Duration, between func()) (p phaseResults, err error) {
	p.warm, _ = lg.run(ctx, warmup)
	if p.before, err = scrape(lg.base); err != nil {
		return p, fmt.Errorf("scraping /metrics: %w", err)
	}
	between()
	p.meas, p.elapsed = lg.run(ctx, window)
	if p.after, err = scrape(lg.base); err != nil {
		return p, fmt.Errorf("scraping /metrics: %w", err)
	}
	return p, nil
}

// phaseResults is what phases measured: the requests of both phases, how
// long the window's requests took from first send to last answer, and
// the /metrics scrapes around the window.
type phaseResults struct {
	warm, meas    []*result
	elapsed       time.Duration
	before, after map[string]float64
}

// all returns the requests of both phases.
func (p phaseResults) all() []*result { return append(append([]*result(nil), p.warm...), p.meas...) }

// failedLatencyMs is the latency a failed request counts with: the load
// generator's client timeout.
const failedLatencyMs = 60000

// runEndToEnd measures set-up and one window against the server binary.
func runEndToEnd(ctx context.Context, bin string, gen *Generator, window time.Duration, rec *runRecord) (output, error) {
	var setups sample
	var srv *serverProc
	for k := 0; k < setupRuns; k++ {
		p, d, err := startServer(ctx, bin)
		if err != nil {
			return output{}, err
		}
		setups = append(setups, d.Seconds())
		if k < setupRuns-1 {
			p.stop()
			continue
		}
		srv = p
	}
	rec.SetupRuns = setups
	lg := newLoadGen(srv.base, gen, shapeOf(gen.workload))
	var rss *rssSampler
	ph, err := phases(ctx, lg, window, func() { rss = srv.samplePeakRSS() })
	var peaks sample
	if rss != nil {
		var rerr error
		if peaks, rerr = rss.finish(); rerr != nil && err == nil {
			err = fmt.Errorf("reading the server's peak RSS: %w", rerr)
		}
	}
	var served map[string]string
	if err == nil {
		served, err = modelFingerprints(srv.base)
	}
	srv.stop()
	if err != nil {
		return output{}, err
	}
	rec.RSSPeaksMB = peaks
	m, err := trainModels(ctx)
	if err != nil {
		return output{}, err
	}
	if err := sameModels(m, served); err != nil {
		return output{}, err
	}
	all := ph.all()
	check, err := checkOutputs(ctx, m, all)
	if err != nil {
		return output{}, err
	}
	rec.Check = check
	rec.CrossCheck = crossCheck(ph.meas, ph.before, ph.after)
	vals := windowMetrics(ph.meas, window, ph.elapsed, rec)
	vals["setup_s"] = setups.pct(50)
	vals["rss_peak_mb"] = peaks.pct(50)
	metrics, missing := collect(endToEnd, vals)
	if len(missing) > 0 {
		return output{}, fmt.Errorf("unmeasured metrics %v", missing)
	}
	printSummary(rec, metrics)
	return output{Correct: check.Failed == 0, Attempted: len(all), Failed: check.Failed, Metrics: metrics}, nil
}

// sameModels proves the in-process classifiers are the served ones.
func sameModels(m *models, served map[string]string) error {
	for name, c := range m.cls {
		if fp := c.Fingerprint(); served[name] != fp {
			return fmt.Errorf("model %q: server fingerprint %q, in-process %q: the benchmark's quick options no longer match `mvpar serve -quick`", name, served[name], fp)
		}
	}
	return nil
}

// latencySlices is how many equal slices of the window the latency
// percentiles are taken over. Each percentile is the median of the
// slices' percentiles, so a burst of noise from outside the benchmark
// in one slice does not set it; the pooled percentiles go into the
// record.
const latencySlices = 5

// windowMetrics computes the end-to-end metrics of the measured window
// other than set-up and memory. Rates are per second of elapsed, the
// window's first send to its last answer. It runs after checkOutputs, so
// a 200 that failed the check counts as an error. A failed request
// counts with failedLatencyMs in the latency percentiles, so it misses
// any latency limit. Oracle agreement counts each distinct answered
// program once, so hit-mix's resubmissions do not weight it toward the
// hot set.
func windowMetrics(meas []*result, window, elapsed time.Duration, rec *runRecord) map[string]float64 {
	var lat, lag sample
	slices := make([]sample, latencySlices)
	var ok, errs, loops, degraded, judged, agree float64
	seen := map[srcKey]bool{}
	var start time.Time
	for _, r := range meas {
		if start.IsZero() || r.due.Before(start) {
			start = r.due
		}
	}
	for _, r := range meas {
		l := float64(failedLatencyMs)
		if r.bad == "" {
			l = ms(r.latency())
		}
		lat = append(lat, l)
		i := min(int(r.due.Sub(start)*latencySlices/window), latencySlices-1)
		slices[i] = append(slices[i], l)
		if r.bad != "" {
			errs++
			continue
		}
		ok++
		lag = append(lag, ms(r.sent.Sub(r.due)))
		k := srcKey{r.req.Model, r.req.Name, r.req.Source}
		distinct := !seen[k]
		seen[k] = true
		for _, p := range r.resp.Predictions {
			loops++
			if p.Degraded {
				degraded++
			}
			if distinct {
				judged++
				if p.Parallel == p.Oracle {
					agree++
				}
			}
		}
	}
	var p50s, p99s sample
	rec.Samples = map[string]int{"latency": len(lat), "loops": int(loops)}
	for i, sl := range slices {
		p50s = append(p50s, sl.pct(50))
		p99s = append(p99s, sl.pct(99))
		rec.Samples[fmt.Sprintf("latency_slice%d", i)] = len(sl)
	}
	rec.PooledP50Ms, rec.PooledP99Ms = lat.pct(50), lat.pct(99)
	rec.ErrorShare = ratio(errs, float64(len(meas)))
	rec.DegradedShare = ratio(degraded, loops)
	rec.GeneratorLagP99Ms = lag.pct(99)
	secs := elapsed.Seconds()
	return map[string]float64{
		"rps":              ok / secs,
		"loops_per_s":      loops / secs,
		"latency_p50_ms":   p50s.pct(50),
		"latency_p99_ms":   p99s.pct(50),
		"success_share":    1 - rec.ErrorShare,
		"oracle_agreement": ratio(agree, judged),
		"full_view_share":  1 - rec.DegradedShare,
	}
}

// crossCheck compares the server's own /metrics deltas over the window
// with the benchmark's outside counts of the same requests.
func crossCheck(meas []*result, before, after map[string]float64) []crossRow {
	var hits, misses, shed, batched, f64, i8 float64
	for _, r := range meas {
		if r.dropped {
			continue
		}
		if r.req.Model == fastModel {
			i8++
		} else {
			f64++
		}
		switch {
		case r.ok() && r.resp.Cached:
			hits++
		case r.status == 429:
			misses++
			shed++
		default:
			misses++
			batched++
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	rows := []crossRow{
		{Name: "cache hits", Server: delta("mvpar_http_cache_hits_total"), Outside: hits},
		{Name: "cache misses", Server: delta("mvpar_http_cache_misses_total"), Outside: misses},
		{Name: "shed", Server: delta("mvpar_http_shed_total"), Outside: shed},
		{Name: "batched requests", Server: delta("mvpar_http_batch_size_sum"), Outside: batched},
		{Name: "float64 requests", Server: delta("mvpar_classify_requests_float64_total"), Outside: f64},
		{Name: "int8 requests", Server: delta("mvpar_classify_requests_int8_total"), Outside: i8},
		{Name: "batches", Server: delta("mvpar_http_batches_total"), Outside: -1},
	}
	for i := range rows {
		rows[i].Agree = rows[i].Outside < 0 || rows[i].Server == rows[i].Outside
	}
	return rows
}

// crossRow is one /metrics delta beside the benchmark's outside count;
// Outside is -1 where the benchmark cannot see the quantity.
type crossRow struct {
	Name    string  `json:"name"`
	Server  float64 `json:"server"`
	Outside float64 `json:"outside"`
	Agree   bool    `json:"agree"`
}

// printSummary writes a human-readable account of the run to stderr.
func printSummary(rec *runRecord, metrics map[string]metricValue) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s seed %d window %ds trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  samples %v, error share %.4g, degraded share %.4g, generator lag p99 %.3g ms\n",
		rec.Samples, rec.ErrorShare, rec.DegradedShare, rec.GeneratorLagP99Ms)
	fmt.Fprintf(w, "  check: %+v\n", rec.Check)
	for _, c := range rec.CrossCheck {
		flag := ""
		if !c.Agree {
			flag = "  DISAGREES"
		}
		fmt.Fprintf(w, "  /metrics %-18s server %8.0f outside %8.0f%s\n", c.Name, c.Server, c.Outside, flag)
	}
}
