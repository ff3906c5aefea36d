package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/control"
	"nwdeploy/internal/experiments"
)

// smallCluster are flags that shrink a cluster run; a case's own flags
// come after them, so they win.
var smallCluster = []string{"-sessions", "200", "-epochs", "2", "-probes", "50"}

// Every flag either changes the run or exits 2 with a message naming it:
// a knob of a driver the spec does not include, a replan knob without
// -replan, -encoding without -deltas, a flag that contradicts what the
// spec needs, and every value out of its range.
func TestClusterRejectsFlags(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-nodefailprob", []string{"-scenario", "diurnal", "-nodefailprob", "0.3"}},
		{"-outageprob", []string{"-scenario", "bursts", "-outageprob", "0.3"}},
		{"-maxdown", []string{"-scenario", "maintenance", "-maxdown", "1"}},
		{"-reoptevery", []string{"-scenario", "flashcrowd", "-reoptevery", "2"}},
		{"-burstfactor", []string{"-burstfactor", "2"}},
		{"-burstprob", []string{"-scenario", "diurnal", "-burstprob", "0.5"}},
		{"-basejitter", []string{"-basejitter", "0.05"}},
		{"-warmreplan", []string{"-scenario", "diurnal", "-warmreplan"}},
		{"-replanthreshold", []string{"-scenario", "bursts", "-governor", "-replanthreshold", "0.1"}},
		{"-replanmaxiters", []string{"-replanmaxiters", "100"}},
		{"-encoding", []string{"-encoding", "bin"}},
		{"-dataplane", []string{"-dataplane=false"}},
		{"-dataplane", []string{"-scenario", "diurnal+chaos", "-dataplane=false"}},
		{"-scenario", []string{"-scenario", "chaos+synflood"}},
		{"-scenario", []string{"-scenario", "nosuch"}},
		{"-topology", []string{"-topology", "nosuch"}},
		{"-epochs", []string{"-epochs", "0"}},
		{"-epochs", []string{"-epochs", "-2"}},
		{"-redundancy", []string{"-redundancy", "0"}},
		{"-probes", []string{"-probes", "-1"}},
		{"-sessions", []string{"-sessions", "0"}},
		{"-lossprob", []string{"-lossprob", "1.5"}},
		{"-blackholeprob", []string{"-blackholeprob", "-0.1"}},
		{"-nodefailprob", []string{"-nodefailprob", "2"}},
		{"-outageprob", []string{"-outageprob", "1.01"}},
		{"-burstprob", []string{"-scenario", "bursts", "-burstprob", "1.5"}},
		{"-maxdown", []string{"-maxdown", "-1"}},
	} {
		args := append(slices.Clone(smallCluster), tc.args...)
		code, out, errs := run(Cluster, args...)
		if code != 2 || out != "" || !strings.Contains(errs, tc.flag) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s", tc.args, code, out, errs, tc.flag)
		}
	}
}

// resolveCluster parses args with cmd/cluster's flags and returns the
// config its resolver builds.
func resolveCluster(args []string) (cluster.ScenarioConfig, error) {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	resolve := clusterFlags(fs)
	for _, name := range []string{"metrics", "trace", "ledger", "pprof"} {
		fs.String(name, "", "")
	}
	fs.Int("ringsize", 0, "")
	fs.Bool("fleet", false, "")
	if err := fs.Parse(args); err != nil {
		return cluster.ScenarioConfig{}, err
	}
	return resolve()
}

// referenceConfig is the config cmd/cluster built before its run modes
// became catalog scenarios: its flags and its mode switch, kept as the
// oracle for TestClusterConfigUnchanged. The plane handles are left out.
func referenceConfig(args []string) (cluster.ScenarioConfig, error) {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	topoName := fs.String("topology", "internet2", "")
	sessions := fs.Int("sessions", 4000, "")
	epochs := fs.Int("epochs", 8, "")
	redundancy := fs.Int("redundancy", 1, "")
	seed := fs.Int64("seed", 1, "")
	lossProb := fs.Float64("lossprob", 0.2, "")
	blackholeProb := fs.Float64("blackholeprob", 0.05, "")
	nodeFailProb := fs.Float64("nodefailprob", 0.15, "")
	outageProb := fs.Float64("outageprob", 0.1, "")
	maxDown := fs.Int("maxdown", 0, "")
	staleGrace := fs.Int("stalegrace", 2, "")
	reoptEvery := fs.Int("reoptevery", 3, "")
	workers := fs.Int("workers", 0, "")
	probes := fs.Int("probes", 2000, "")
	for _, name := range []string{"metrics", "trace", "ledger", "pprof"} {
		fs.String(name, "", "")
	}
	fs.Int("ringsize", 512, "")
	fs.Bool("fleet", false, "")
	deltas := fs.Bool("deltas", false, "")
	encoding := fs.String("encoding", "json", "")
	overload := fs.Bool("overload", false, "")
	burstFactor := fs.Float64("burstfactor", 4, "")
	burstProb := fs.Float64("burstprob", 0.15, "")
	baseJitter := fs.Float64("basejitter", 0.1, "")
	governorOn := fs.Bool("governor", false, "")
	replan := fs.Bool("replan", false, "")
	warmReplan := fs.Bool("warmreplan", false, "")
	replanThreshold := fs.Float64("replanthreshold", 0.2, "")
	replanMaxIters := fs.Int("replanmaxiters", 0, "")
	scenario := fs.String("scenario", "", "")
	dataPlane := fs.Bool("dataplane", false, "")
	if err := fs.Parse(args); err != nil {
		return cluster.ScenarioConfig{}, err
	}
	topo, err := topologyByName(*topoName)
	if err != nil {
		return cluster.ScenarioConfig{}, err
	}
	enc := map[string]control.Encoding{"json": control.EncodingJSON, "bin": control.EncodingBinary}[*encoding]
	moduleSubset := func(names ...string) []bro.ModuleSpec {
		var mods []bro.ModuleSpec
		for _, m := range bro.StandardModules() {
			if slices.Contains(names, m.Name) {
				mods = append(mods, m)
			}
		}
		return mods
	}

	cfg := cluster.ScenarioConfig{
		Topo: topo, Sessions: *sessions, Epochs: *epochs,
		Redundancy: *redundancy, Seed: *seed,
		Governor: *governorOn,
		Replan:   *replan, WarmReplan: *warmReplan,
		ReplanThreshold: *replanThreshold, ReplanMaxIters: *replanMaxIters,
		StaleGrace: *staleGrace,
		Workers:    *workers, Probes: *probes,
	}
	switch {
	case *scenario != "":
		var parts []experiments.Scenario
		for _, name := range strings.Split(*scenario, "+") {
			switch name {
			case "diurnal":
				parts = append(parts, experiments.NewDiurnal(*seed, *epochs))
			case "flashcrowd":
				parts = append(parts, experiments.NewFlashCrowd(*epochs))
			case "synflood":
				parts = append(parts, experiments.NewSYNFlood(*seed, *epochs))
			case "maintenance":
				parts = append(parts, experiments.NewMaintenance(*epochs))
			case "adversary":
				parts = append(parts, experiments.NewAdaptiveAdversary(*seed))
			default:
				return cfg, fmt.Errorf("unknown scenario %q", name)
			}
		}
		cfg.Driver = parts[0]
		if len(parts) > 1 {
			cfg.Driver = experiments.Compose(parts...)
		}
		cfg.DataPlane = *dataPlane
		if strings.Contains(*scenario, "synflood") && *redundancy == 1 {
			cfg.Modules = moduleSubset("http", "signature", "synflood")
		}
	case *overload:
		cfg.Driver = &cluster.BurstDriver{
			Seed: *seed, BurstFactor: *burstFactor, BurstProb: *burstProb, BaseJitter: *baseJitter,
		}
	default:
		chaosDriver := &cluster.ChaosDriver{
			Seed: *seed, NodeFailProb: *nodeFailProb, ControllerOutageProb: *outageProb,
			MaxDown: *maxDown, ReoptEvery: *reoptEvery,
		}
		cfg.Driver = chaosDriver
		cfg.Governor, cfg.Replan = false, false
		cfg.Modules = bro.StandardModules()[1:]
		if *redundancy > 1 {
			cfg.Modules = moduleSubset("signature", "http")
			if *maxDown == 0 {
				chaosDriver.MaxDown = *redundancy - 1
			}
		}
		cfg.Faults = chaos.NetworkFaults{DropProb: *lossProb, BlackholeProb: *blackholeProb}
		cfg.Agent = control.AgentOptions{DialTimeout: 200 * time.Millisecond, RPCTimeout: 300 * time.Millisecond}
		cfg.Deltas, cfg.Encoding = *deltas, enc
		cfg.DataPlane = true
	}
	return cfg, nil
}

// Every command cmd/cluster ran before chaos and bursts joined the catalog
// — the default run, each README command, -scenario synflood at r=1, and
// the tier tests' runs — builds the config it built then (-overload is
// -scenario bursts now), so every printed value is unchanged.
func TestClusterConfigUnchanged(t *testing.T) {
	t.Parallel()
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := [][]string{
		nil,
		{"-scenario", "synflood"},
		{"-scenario", "synflood", "-redundancy", "2", "-dataplane"},
		{"-redundancy", "3", "-maxdown", "1", "-deltas", "-encoding", "bin"},
		{"-sessions", "2000", "-epochs", "6", "-seed", "21", "-probes", "500"},
		{"-sessions", "400", "-epochs", "2", "-seed", "21", "-probes", "200",
			"-lossprob", "0.1", "-blackholeprob", "0", "-nodefailprob", "0", "-outageprob", "0"},
		{"-sessions", "300", "-epochs", "2", "-seed", "4", "-probes", "100", "-blackholeprob", "0"},
		overloadTier("-workers", "4"),
	}
	for _, line := range readmeCommands(string(readme)) {
		if fields := strings.Fields(line); fields[2] == "./cmd/cluster" {
			cmds = append(cmds, fields[3:])
		}
	}
	compared := 0
	for _, args := range cmds {
		ref := slices.Clone(args)
		if i := slices.Index(ref, "bursts"); i > 0 && ref[i-1] == "-scenario" {
			ref = slices.Replace(ref, i-1, i+1, "-overload")
		}
		want, err := referenceConfig(ref)
		if err != nil {
			// A composition with chaos or bursts: a run only the catalog
			// can express.
			t.Logf("%v: new surface only (%v)", args, err)
			continue
		}
		got, err := resolveCluster(args)
		if err != nil {
			t.Errorf("%v: %v", args, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: config\n%+v\nwant\n%+v", args, got, want)
		}
		compared++
	}
	if compared < 15 {
		t.Fatalf("compared %d commands; the README lost its cluster commands?", compared)
	}
}

// A composed run — diurnal drift under chaos, governed and replanning —
// prints the same bytes at every worker count.
func TestClusterComposedWorkersDeterminism(t *testing.T) {
	t.Parallel()
	var outs []string
	for _, workers := range []string{"1", "4"} {
		outs = append(outs, mustRun(t, Cluster, append(slices.Clone(smallCluster),
			"-scenario", "diurnal+chaos", "-governor", "-replan", "-redundancy", "2", "-epochs", "4", "-workers", workers)...))
	}
	if outs[0] != outs[1] || !strings.Contains(outs[0], "# scenario diurnal+chaos on ") ||
		!strings.Contains(outs[0], "# verdict: coverage guarantee ") {
		t.Fatalf("-workers 1:\n%s\n-workers 4:\n%s", outs[0], outs[1])
	}
}

// A breached floor's verdict points at the post-mortem only when -trace
// wrote one, and then names its file.
func TestClusterBreachVerdictNamesDump(t *testing.T) {
	t.Parallel()
	args := []string{"-scenario", "diurnal", "-lossprob", "0.3", "-blackholeprob", "0.3", "-sessions", "300", "-epochs", "2", "-probes", "100"}
	verdict := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "# verdict: coverage floor") {
				return line
			}
		}
		t.Fatalf("no floor verdict in:\n%s", out)
		return ""
	}
	if v := verdict(mustRun(t, Cluster, args...)); !strings.Contains(v, "BREACHED") || strings.Contains(v, "post-mortem") {
		t.Errorf("without -trace: %q, want a breach that names no dump", v)
	}
	dump := filepath.Join(t.TempDir(), "run.jsonl")
	v := verdict(mustRun(t, Cluster, append(args, "-trace", dump)...))
	if want := "(post-mortem in the trace dump " + dump + ")"; !strings.Contains(v, "BREACHED") || !strings.HasSuffix(v, want) {
		t.Errorf("with -trace: %q, want a breach ending %q", v, want)
	}
	if _, err := os.Stat(dump); err != nil {
		t.Errorf("the named dump: %v", err)
	}
}
