package main

// schema.go is the benchmark's one result schema, and the tables
// BENCHMARK.json is generated from (`perf manifest`): the workloads with
// their reasons, the end-to-end metrics with their regression bounds, and
// the per-layer metrics a traced run reports.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`  // timed samples behind a median
	Tail    float64 `json:"tail,omitempty"`     // highest percentile with >= 10 samples beyond it
	TailPct float64 `json:"tail_pct,omitempty"` // which percentile Tail is
	Exact   bool    `json:"exact,omitempty"`    // a count: repeats exactly for one seed and size
	Note    string  `json:"note,omitempty"`     // e.g. "by subtraction"
}

// result is one run of one workload.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Traced     bool     `json:"traced"`
	Iterations int      `json:"iterations"` // measured, after the warm-up discard
	Warmup     int      `json:"warmup"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Correct    bool     `json:"correct"`
	Failures   []string `json:"failures,omitempty"`
	Metrics    []metric `json:"metrics"`
	Env        envBlock `json:"env"`
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// metricDef declares a metric in BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	// On names the workloads whose runs report the metric; none means all.
	// A traced run must report exactly the per-layer metrics that are on its
	// workload: the driver's line carries 0 for the others (the layer took no
	// time there), never for one that went missing.
	On []string
	// Untraced marks a per-layer entry that untraced runs report as well:
	// ISSUE 12's end-to-end names, which the driver's one-list-for-every-
	// workload contract keeps out of end_to_end.
	Untraced bool
}

// on reports whether runs of the workload report the metric.
func (d metricDef) on(workload string) bool {
	if len(d.On) == 0 {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the figures a user of the system sees, reported by every
// workload and gated by the driver. The driver's contract wants one list
// that every workload reports, none ever 0, so the per-workload figures
// ISSUE 12 names (sessions_per_s, packets_per_s, replan_ms_p50, ...) cannot
// be entries: they are declared in perLayer, each on its own workload. The
// bounds are as tight as this box's run-to-run spread allows (README,
// "Steadiness").
var endToEnd = []metricDef{
	{Name: "iter_norm_ms_mid", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_iter", Unit: "KB", Better: "lower", Bound: 0.15},
}

// standardModuleNames are the eight analysis modules of the paper's Fig. 5.
var standardModuleNames = []string{"scan", "irc", "login", "tftp", "http", "blaster", "signature", "synflood"}

// perLayer are the single-layer figures, each on the workloads that exercise
// its layer, each under one name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	var on []string
	add := func(better, name, unit string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, On: on})
	}
	lower := func(name, unit string) { add("lower", name, unit) }
	higher := func(name, unit string) { add("higher", name, unit) }
	// own declares one of ISSUE 12's end-to-end names: computed from the raw,
	// un-normalised samples, reported by traced and untraced runs alike.
	own := func(better, name, unit string) {
		add(better, name, unit)
		defs[len(defs)-1].Untraced = true
	}

	on = []string{"node_coord", "node_edge"}
	own("higher", "sessions_per_s", "sessions/s")
	on = []string{"node_pcap"}
	own("higher", "packets_per_s", "frames/s")
	on = []string{"replan_nids"}
	own("lower", "replan_ms_p50", "ms")
	on = []string{"replan_nips"}
	own("lower", "nips_solve_ms_p50", "ms")
	on = []string{"cluster_epoch"}
	own("lower", "epoch_ms_p50", "ms")
	on = []string{"distribute_1k"}
	own("lower", "converge_ms_p50", "ms")
	own("lower", "rejoin_ms_p50", "ms")
	own("lower", "wire_bytes_per_epoch", "bytes")
	on = nil
	own("lower", "failed_frac", "frac")

	on = []string{"node_coord"}
	lower("hashing.hash_ns_per_tuple", "ns")
	lower("control.decide_ns_per_session", "ns")
	lower("control.decide_share", "frac")
	lower("control.decide_allocs_per_session", "count")
	lower("control.analyzed_frac", "frac")
	higher("bro.sharded_ratio", "ratio")
	on = []string{"node_coord", "node_edge", "node_pcap"}
	lower("bro.analyze_ns_per_session", "ns")
	lower("bro.analyze_share", "frac")
	lower("bro.alloc_bytes_per_session", "bytes")
	lower("bro.cost_units_per_session", "units")
	on = []string{"node_edge"}
	for _, m := range standardModuleNames {
		lower("bro.module_ns_per_session."+m, "ns")
	}
	on = []string{"node_pcap"}
	lower("packet.decode_assemble_ns_per_packet", "ns")
	lower("packet.share", "frac")
	lower("packet.alloc_bytes_per_packet", "bytes")
	lower("conntrack.update_ns_per_packet", "ns")

	on = []string{"replan_nids"}
	lower("core.build_instance_ms", "ms")
	lower("core.formulate_ms", "ms")
	higher("lp.pivots_per_s", "1/s")
	lower("lp.rows", "count")
	lower("lp.cols", "count")
	lower("lp.alloc_bytes_per_solve", "bytes")
	lower("lp.warm_solve_ms", "ms")
	lower("lp.warm_pivots", "count")
	for _, c := range lpCurve {
		lower("lp.curve_ms."+c.name, "ms")
		lower("lp.curve_cells."+c.name, "count")
	}
	lower("control.manifest_build_us_per_node", "us")
	lower("control.canonical_us_per_node", "us")
	lower("control.encode_bin_us_per_node", "us")
	lower("control.manifest_bytes_per_node", "bytes")
	lower("control.diff_us_per_node", "us")
	lower("control.delta_bytes_per_node", "bytes")
	lower("control.apply_delta_us_per_node", "us")
	lower("control.decider_build_us_per_node", "us")
	on = []string{"replan_nids", "replan_nips"}
	lower("lp.solve_ms", "ms")
	lower("lp.pivots", "count")
	on = []string{"replan_nids", "cluster_epoch"}
	lower("lp.share", "frac")
	on = []string{"replan_nips"}
	lower("nips.relax_ms", "ms")
	lower("nips.round_ms", "ms")
	lower("nips.lp_resolves", "count")
	lower("nips.round_trials", "count")
	lower("nips.lp_share", "frac")

	on = []string{"distribute_1k"}
	lower("control.sync_us_p50", "us")
	lower("control.sync_us_tail", "us")
	higher("control.delta_syncs", "count")
	lower("control.full_syncs", "count")
	lower("control.delta_full_ratio", "ratio")
	lower("control.formation_ms", "ms")
	lower("control.formation_bytes", "bytes")
	lower("control.rejoin_bytes", "bytes")

	on = []string{"cluster_epoch"}
	lower("control.agent_rx_bytes_per_epoch", "bytes")
	lower("cluster.dataplane_share", "frac")
	lower("cluster.replans", "count")
	lower("cluster.replan_iters", "count")
	lower("cluster.fetch_attempts", "count")
	lower("ledger.overhead_frac", "frac")
	lower("telemetry.overhead_frac", "frac")
	lower("trace.overhead_frac", "frac")
	lower("obs.overhead_frac", "frac")
	lower("governor.overhead_frac", "frac")

	on = nil
	lower("perf.trace_overhead_frac", "frac")
	higher("perf.speed_factor", "ratio")
	lower("process.peak_rss_mb", "MB")
	return defs
}

// benchmarkManifest renders BENCHMARK.json from the tables above.
func benchmarkManifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command: []string{"bash", "cmd/perf/run.sh"}, Paths: []string{"cmd/perf"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// driverLine is the one JSON object the benchmark driver reads off the last
// line of standard output: every end-to-end metric of an untraced run, or
// every per-layer metric of a traced one — 0 for a layer the workload does
// not exercise, an error for a metric the workload should have reported.
func (r *result) driverLine() ([]byte, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(defs))
	for _, d := range defs {
		m, ok := r.get(d.Name)
		if ok != d.on(r.Workload) {
			return nil, fmt.Errorf("workload %s: metric %s reported %v, declared %v", r.Workload, d.Name, ok, !ok)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("workload %s: metric %s is not finite", r.Workload, d.Name)
		}
		metrics[d.Name] = val{m.Value, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// print writes every metric by name with its unit, one per line.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d %s: %d iterations after %d warm-up, %d operations, %d failed\n",
		r.Workload, r.Seed, mode, r.Iterations, r.Warmup, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%-16s %-42s %16.6g %s", r.Workload, m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf("  n=%d", m.Samples)
		}
		if m.TailPct > 0 {
			line += fmt.Sprintf("  p%.1f=%.6g", m.TailPct, m.Tail)
		}
		if m.Exact {
			line += "  exact"
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", r.Workload, f)
	}
}
