package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatches holds the two together).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"loops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_share", "ratio"},
	{"oracle_agreement", "ratio"},
	{"full_view_share", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics the traced run reports, named after the
// layer (the repository's package) they measure.
var perLayer = []metricDef{
	{"serve.admission_ms.p50", "ms"},
	{"serve.admission_ms.p99", "ms"},
	{"serve.overhead_ms.p50", "ms"},
	{"serve.hit_ms.p50", "ms"},
	{"serve.hit_ms.p99", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.batch_size.mean", "count"},
	{"serve.shed_share", "ratio"},
	{"core.classify_ms.p50", "ms"},
	{"core.classify_ms.p99", "ms"},
	{"core.classify_allocs", "count"},
	{"core.classify_alloc_kb", "KiB"},
	{"core.residual_ms", "ms"},
	{"dataset.build_ms", "ms"},
	{"dataset.profile_ms", "ms"},
	{"dataset.encode_ms", "ms"},
	{"minic.parse_ms", "ms"},
	{"ir.lower_ms", "ms"},
	{"tools.static_ms", "ms"},
	{"deps.analyze_ms", "ms"},
	{"peg.build_ms", "ms"},
	{"walks.sample_ms", "ms"},
	{"gnn.forward_us.f64", "us"},
	{"gnn.forward_us.i8", "us"},
	{"interp.steps", "count"},
	{"deps.ns_per_step", "ns"},
	{"gnn.loops", "count"},
	{"peg.nodes", "count"},
	{"walks.samples", "count"},
	{"deps.analyze.allocs", "count"},
	{"walks.sample.allocs", "count"},
	{"dataset.build.allocs", "count"},
	{"gnn.forward.allocs", "count"},
	{"minic.parse.share", "ratio"},
	{"ir.lower.share", "ratio"},
	{"tools.static.share", "ratio"},
	{"deps.analyze.share", "ratio"},
	{"peg.build.share", "ratio"},
	{"walks.sample.share", "ratio"},
	{"dataset.other.share", "ratio"},
	{"gnn.forward.share", "ratio"},
	{"core.residual.share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the printed metric map, in the
// units defs declare. Every def must have been measured.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
