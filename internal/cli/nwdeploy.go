package cli

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/packet"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// Spec is the JSON scenario format.
type Spec struct {
	// Topology selects a built-in topology: "internet2" (also ""),
	// "geant", "as1221", "as1239", "as3257", or "isp50". Alternatively
	// Nodes/Links define a custom one.
	Topology string     `json:"topology,omitempty"`
	Nodes    []SpecNode `json:"nodes,omitempty"`
	Links    []SpecLink `json:"links,omitempty"`

	// Sessions and Seed parameterize the synthetic workload: the one that
	// derives coordination-unit volumes for NIDS planning, and the one
	// -mode pcap writes.
	Sessions int   `json:"sessions"`
	Seed     int64 `json:"seed"`

	// CPUCap/MemCap are uniform per-node capacities for NIDS planning.
	CPUCap float64 `json:"cpu_cap"`
	MemCap float64 `json:"mem_cap"`

	// NIPS parameters.
	Rules                int     `json:"rules"`
	MaxPaths             int     `json:"max_paths"`
	RuleCapacityFraction float64 `json:"rule_capacity_fraction"`

	// Workers sizes the worker pool for the NIPS rounding sweep: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Results are identical for any
	// value; overridden by the -workers flag when set.
	Workers int `json:"workers,omitempty"`
}

// SpecNode is a custom topology node.
type SpecNode struct {
	Name       string  `json:"name"`
	City       string  `json:"city"`
	Population float64 `json:"population"`
	Lat        float64 `json:"lat"`
	Lon        float64 `json:"lon"`
}

// SpecLink is a custom topology link; Dist 0 derives the distance from
// coordinates.
type SpecLink struct {
	A    string  `json:"a"`
	B    string  `json:"b"`
	Dist float64 `json:"dist,omitempty"`
}

func defaultSpec() Spec {
	return Spec{
		Topology: "internet2",
		Sessions: 10000,
		Seed:     1,
		CPUCap:   1e7,
		MemCap:   1e9,
		Rules:    20,
		MaxPaths: 15,

		RuleCapacityFraction: 0.15,
	}
}

// Nwdeploy plans a NIDS or NIPS deployment from a JSON scenario spec, or
// writes the spec's workload as a pcap capture. See cmd/nwdeploy.
func Nwdeploy(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nwdeploy", flag.ContinueOnError)
	mode := fs.String("mode", "nids", "nids | nips | manifest | whatif | pcap | dot")
	specPath := fs.String("spec", "", "path to a JSON scenario spec")
	redundancy := fs.Int("redundancy", 1, "NIDS coverage level r")
	variant := fs.String("variant", "greedy", "NIPS variant: basic | lp | greedy")
	iters := fs.Int("iters", 5, "NIPS rounding iterations")
	node := fs.Int("node", 0, "node whose manifest to print (mode manifest)")
	factor := fs.Float64("factor", 2.0, "capacity multiplier for what-if upgrades (mode whatif)")
	workers := fs.Int("workers", 0, "worker pool size for the NIPS rounding sweep (0 = GOMAXPROCS, 1 = serial)")
	out := fs.String("o", "", "output pcap path (mode pcap)")
	printSpec := fs.Bool("print-spec", false, "emit the default spec as JSON and exit")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof, /debug/vars, and /metrics on this address")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	fail := failer("nwdeploy", stderr)
	metrics := obs.New()
	_, stopDebug, err := serveDebug(*pprofAddr, obshttp.Options{Registry: metrics})
	if err != nil {
		return fail(err)
	}
	defer stopDebug()

	spec := defaultSpec()
	if *printSpec {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			return fail(err)
		}
		return 0
	}
	if *specPath != "" {
		if err := loadSpec(*specPath, &spec); err != nil {
			return fail(err)
		}
	}
	if *workers != 0 {
		spec.Workers = *workers
	}
	topo, err := buildTopology(spec)
	if err != nil {
		return fail(err)
	}

	switch *mode {
	case "nids":
		err = runNIDS(stdout, topo, spec, *redundancy, false, 0, metrics)
	case "manifest":
		err = runNIDS(stdout, topo, spec, *redundancy, true, *node, metrics)
	case "nips":
		err = runNIPS(stdout, topo, spec, *variant, *iters, metrics)
	case "whatif":
		err = runWhatIf(stdout, topo, spec, *redundancy, *factor, metrics)
	case "pcap":
		err = writePcap(stdout, topo, spec, *out)
	case "dot":
		err = topo.WriteDOT(stdout)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err == nil {
		err = writeMetrics(metrics, *metricsPath)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// loadSpec overlays the JSON spec at path on spec. A key Spec does not
// know is an error naming it, not a silently ignored typo.
func loadSpec(path string, spec *Spec) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("parsing %s: data after the spec object", path)
	}
	return nil
}

// writePcap writes the spec's workload to path as a libpcap capture, start
// times spread over 5 s from a fixed epoch: same spec, same bytes.
func writePcap(w io.Writer, topo *topology.Topology, spec Spec, path string) error {
	if path == "" {
		return errors.New("-mode pcap needs -o FILE")
	}
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: spec.Sessions, Seed: spec.Seed})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path closes it first and checks
	bw := bufio.NewWriterSize(f, 1<<20)
	start := time.Unix(1_280_000_000, 0).UTC()
	n, err := packet.WriteSessionsPcap(packet.NewWriter(bw), sessions, start, 5*time.Second, spec.Seed)
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d packets from %d sessions on %s to %s (%d bytes)\n",
		n, spec.Sessions, topo.Name, path, st.Size())
	return nil
}

func buildTopology(spec Spec) (*topology.Topology, error) {
	if len(spec.Nodes) > 0 {
		nodes := make([]topology.Node, len(spec.Nodes))
		byName := map[string]int{}
		for i, n := range spec.Nodes {
			nodes[i] = topology.Node{
				ID: i, Name: n.Name, City: n.City,
				Population: n.Population, Lat: n.Lat, Lon: n.Lon,
			}
			byName[n.Name] = i
		}
		t := topology.New("custom", nodes)
		for _, l := range spec.Links {
			a, okA := byName[l.A]
			b, okB := byName[l.B]
			if !okA || !okB {
				return nil, fmt.Errorf("link %s-%s references unknown node", l.A, l.B)
			}
			if l.Dist > 0 {
				t.AddLink(a, b, l.Dist)
			} else {
				t.AddLinkAuto(a, b)
			}
		}
		if !t.Connected() {
			return nil, fmt.Errorf("custom topology is disconnected")
		}
		return t, nil
	}
	if spec.Topology == "" {
		return topology.Internet2(), nil
	}
	return topologyByName(spec.Topology)
}

// nidsInstance builds the NIDS planning instance of a spec's workload.
func nidsInstance(topo *topology.Topology, spec Spec) (*core.Instance, error) {
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: spec.Sessions, Seed: spec.Seed})
	classes := bro.Classes(bro.StandardModules()[1:])
	return core.BuildInstance(topo, classes, sessions, core.UniformCaps(topo.N(), spec.CPUCap, spec.MemCap))
}

func runNIDS(w io.Writer, topo *topology.Topology, spec Spec, r int, manifestOnly bool, node int, metrics *obs.Registry) error {
	inst, err := nidsInstance(topo, spec)
	if err != nil {
		return err
	}
	plan, err := core.SolveOpts(inst, core.SolveOptions{Redundancy: r, Metrics: metrics})
	if err != nil {
		return err
	}

	if manifestOnly {
		return printManifest(w, inst, plan, node)
	}

	fmt.Fprintf(w, "topology=%s nodes=%d classes=%d units=%d sessions=%d redundancy=%d\n",
		topo.Name, topo.N(), len(inst.Classes), len(inst.Units), spec.Sessions, r)
	fmt.Fprintf(w, "objective (min max load fraction) = %.4f  cpu=%.4f mem=%.4f  simplex iters=%d\n",
		plan.Objective, plan.MaxCPULoad, plan.MaxMemLoad, plan.SolverIters)
	cpu, mem := core.PerNodeLoads(inst, plan)
	edge := core.EdgePlan(inst)
	eCPU, eMem := core.PerNodeLoads(inst, edge)
	fmt.Fprintln(w, "\nnode\tcity\tcoord_cpu\tcoord_mem\tedge_cpu\tedge_mem")
	for j := 0; j < topo.N(); j++ {
		fmt.Fprintf(w, "%d\t%s\t%.4f\t%.4f\t%.4f\t%.4f\n",
			j, topo.Nodes[j].City, cpu[j], mem[j], eCPU[j], eMem[j])
	}
	fmt.Fprintf(w, "\nmax load: coordinated cpu=%.4f mem=%.4f | edge-only cpu=%.4f mem=%.4f\n",
		plan.MaxCPULoad, plan.MaxMemLoad, slices.Max(eCPU), slices.Max(eMem))
	return nil
}

func printManifest(w io.Writer, inst *core.Instance, plan *core.Plan, node int) error {
	if node < 0 || node >= len(plan.Manifests) {
		return fmt.Errorf("node %d out of range", node)
	}
	m := plan.Manifests[node]
	fmt.Fprintf(w, "sampling manifest for node %d (%s): %d range assignments\n",
		node, inst.Topo.Nodes[node].City, len(m.Ranges))
	type row struct {
		class  string
		key    [2]int
		ranges hashing.RangeSet
	}
	var rows []row
	for ui, rs := range m.Ranges {
		u := inst.Units[ui]
		rows = append(rows, row{inst.Classes[u.Class].Name, u.Key, rs})
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(strings.Compare(a.class, b.class), cmp.Compare(a.key[0], b.key[0]), cmp.Compare(a.key[1], b.key[1]))
	})
	for _, r := range rows {
		fmt.Fprintf(w, "  class=%-12s unit=%v ranges=%v (width %.4f)\n", r.class, r.key, r.ranges, r.ranges.Width())
	}
	return nil
}

func runNIPS(w io.Writer, topo *topology.Topology, spec Spec, variantName string, iters int, metrics *obs.Registry) error {
	variant, ok := map[string]nips.Variant{
		"basic": nips.VariantBasic, "lp": nips.VariantRoundLP, "greedy": nips.VariantRoundGreedyLP,
	}[variantName]
	if !ok {
		return fmt.Errorf("unknown variant %q", variantName)
	}
	inst := nips.NewInstance(topo, nips.UnitRules(spec.Rules), nips.Config{
		MaxPaths:             spec.MaxPaths,
		RuleCapacityFraction: spec.RuleCapacityFraction,
		MatchSeed:            spec.Seed,
	})
	dep, rel, err := nips.Solve(inst, nips.SolveOptions{
		Variant: variant, Iters: iters, Seed: spec.Seed, Workers: spec.Workers,
		Metrics: metrics,
	})
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return fmt.Errorf("scenario has no feasible deployment — raise capacities or rule-capacity fraction: %w", err)
		}
		return err
	}
	if err := dep.Verify(inst); err != nil {
		return fmt.Errorf("internal error: infeasible deployment: %w", err)
	}
	fmt.Fprintf(w, "topology=%s nodes=%d rules=%d paths=%d cam/node=%.1f variant=%s iters=%d\n",
		topo.Name, topo.N(), spec.Rules, len(inst.Paths), inst.CamCap[0], variant, iters)
	fmt.Fprintf(w, "objective=%.4g  OptLP=%.4g  fraction=%.4f\n",
		dep.Objective, rel.Objective, dep.Objective/rel.Objective)
	fmt.Fprintln(w, "\nnode\tenabled_rules")
	for j := 0; j < topo.N(); j++ {
		var enabled []string
		for i := range dep.E {
			if dep.E[i][j] {
				enabled = append(enabled, inst.Rules[i].Name)
			}
		}
		if len(enabled) > 0 {
			fmt.Fprintf(w, "%d\t%v\n", j, enabled)
		}
	}
	return nil
}

// runWhatIf answers the Section 5 provisioning question: where does added
// capacity reduce the bottleneck most?
func runWhatIf(w io.Writer, topo *topology.Topology, spec Spec, r int, factor float64, metrics *obs.Registry) error {
	inst, err := nidsInstance(topo, spec)
	if err != nil {
		return err
	}
	base, err := core.SolveOpts(inst, core.SolveOptions{Redundancy: r, Metrics: metrics})
	if err != nil {
		return err
	}
	ups, err := core.WhatIfUpgrades(inst, r, factor)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline min-max load = %.4f; upgrades at %gx capacity, best first:\n\n", base.Objective, factor)
	fmt.Fprintln(w, "node\tcity\tresource\tnew_objective\tgain")
	printed := 0
	for _, u := range ups {
		if u.Gain == 0 && printed >= 5 {
			continue // the long zero tail is uninformative
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%.4f\t%.4f\n", u.Node, topo.Nodes[u.Node].City, u.Resource, u.Objective, u.Gain)
		printed++
	}
	return nil
}
