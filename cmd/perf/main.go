// Command perf is the repo's one layered benchmark: seven workloads, closed
// loop, one client, every input generated from a seed, every output checked.
//
//	perf [-seed N] [-seconds S] [-workload name] [-trace 0|1] [-o out.json] [-trace-out spans.jsonl]
//	perf compare a.json b.json
//	perf manifest
//
// With -workload it runs that workload once in this process and ends its
// standard output with one JSON object (the benchmark driver's contract:
// every end-to-end metric with -trace 0, every per-layer metric with
// -trace 1). Without it, it runs every workload untraced and then traced,
// each in a process of its own so memory figures are per workload, prints
// every metric by name with its unit, and writes the results to -o.
// README.md has the workload, metric and layer tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSeconds is BENCHMARK.json's run_seconds: the measured window the
// pinned iteration counts are sized for.
const runSeconds = 10

var workloads = []workload{
	{
		name:        "node_coord",
		why:         "Deployed per-node data plane: Internet2 node 10's share of a 100k-session trace, 20 modules, engine driven by a wire-manifest decider; analyze ~92%, decide ~8%. Plan and wire changes must not move it.",
		itersPerSec: 20,
		open:        func(r *run) (opened, error) { return openNode(r, engineCoord, nodeSessions, false) },
	},
	{
		name:        "node_edge",
		why:         "Edge-only baseline: same node, trace and modules, standalone engine, dense pass-set; analyze ~100%, decide 0. Catches sparse-mask optimisations that cost the dense case; decide changes: no move.",
		itersPerSec: 12,
		open:        func(r *run) (opened, error) { return openNode(r, engineEdge, nodeSessions, false) },
	},
	{
		name:        "node_pcap",
		why:         "Per-packet ingestion: node 10's share of a 10k-session trace as a ~120k-frame capture through RunPcap; decode+assemble+conntrack dominate. Engine changes move it little; plan, wire changes: no move.",
		itersPerSec: 14,
		open:        func(r *run) (opened, error) { return openNode(r, engineCoord, pcapSessions, true) },
	},
	{
		name:        "replan_nids",
		why:         "Operations-centre replan at 50 nodes: jittered volumes, cold LP, then manifest+canonical+diff+encode+apply+decider per node; lp ~95%, publish ~5%, analyze 0. Engine and socket changes: no move.",
		itersPerSec: 6.5,
		open:        openNIDS,
	},
	{
		name:        "replan_nips",
		why:         "NIPS pipeline, 50 nodes, 15 rules: one relaxation plus many small LP re-solves; uses lp unlike replan_nids, so a sparse-simplex win that loses on small dense LPs shows. Engine, wire: no move.",
		itersPerSec: 14,
		open:        openNIPS,
	},
	{
		name:        "cluster_epoch",
		why:         "Whole pipeline: 11 agents over loopback TCP, diurnal drift, governor, warm replans, data plane and all four product planes on; every layer at its true share. Judges epoch-runtime and plane refactors.",
		itersPerSec: 13,
		open:        openCluster,
	},
	{
		name:        "distribute_1k",
		why:         "Distribute layer alone: 1000 agents, 5% churn, delta/binary sweep, then 250 agents rejoin via v1 full/JSON; analyze and lp 0. A delta win that costs the legacy path shows; engine, LP changes: no move.",
		itersPerSec: 7,
		open:        openDistribute,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			b, err := benchmarkManifest(runSeconds)
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			return
		}
	}
	var (
		name     = flag.String("workload", "", "run this workload once, in this process (default: all, one process each)")
		seed     = flag.Int64("seed", 1, "input-generation seed: traffic, jitter, churn, match rates, scenario driver")
		seconds  = flag.Int("seconds", runSeconds, "measured window the fixed iteration counts are scaled to")
		traced   = flag.Int("trace", 0, "1: record spans around each layer call and report per-layer metrics")
		out      = flag.String("o", "", "write the full results as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced run's spans as JSON lines to this file")
		runs     = flag.Int("runs", 1, "repeat each run this many times (for `perf compare`)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	if *name == "" {
		os.Exit(suite(*seed, *seconds, *runs, *out, *traceOut))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var results []*result
	code := 0
	for k := 0; k < *runs; k++ {
		res, tr, err := runWorkload(w, runOptions{
			seed: *seed, seconds: *seconds, scale: 1, traced: *traced != 0, warm: warmup, setups: 3, setupBudgetMs: setupBudgetMs,
		})
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if *traceOut != "" && tr != nil {
			if err := tr.writeJSONL(*traceOut); err != nil {
				fatal(err)
			}
		}
		results = append(results, res)
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fatal(err)
		}
	}
	line, err := results[len(results)-1].driverLine()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

func writeResults(path string, results []*result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(b, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// suite runs every workload untraced, then traced, each in a child process
// so one workload's heap does not show in another's memory figures.
func suite(seed int64, seconds int, runs int, out, traceOut string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	tmp, err := os.CreateTemp("", "perf-*.json")
	if err != nil {
		fatal(err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	env := readEnv()
	fmt.Printf("# perf: commit %s, %s, nproc %d, GOMAXPROCS %d, sockets on %s\n",
		env.Commit, env.GoVersion, env.NProc, maxProcs(), env.Network)
	var all []*result
	code := 0
	for _, traced := range []int{0, 1} {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
				"-runs", strconv.Itoa(runs),
				"-trace", strconv.Itoa(traced), "-o", tmp.Name(),
			}
			if traced == 1 && traceOut != "" {
				args = append(args, "-trace-out", traceOut+"."+w.name)
			}
			// A child that fails its checks exits 1 after writing its results;
			// one that could not run at all leaves the emptied file empty.
			if err := os.Truncate(tmp.Name(), 0); err != nil {
				fatal(err)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perf: %s (trace %d): %v\n", w.name, traced, err)
				code = 1
			}
			results, err := readResults(tmp.Name())
			if err != nil {
				fmt.Fprintf(os.Stderr, "perf: %s (trace %d): no results: %v\n", w.name, traced, err)
				code = 1
				continue
			}
			all = append(all, results...)
		}
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			fatal(err)
		}
	}
	return code
}
