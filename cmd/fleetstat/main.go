// Command fleetstat renders and checks the fleet telemetry plane.
//
// Usage:
//
//	fleetstat [-addr 127.0.0.1:6060] [-history]
//	fleetstat -selftest
//
// The default mode scrapes a live debug endpoint (any command serving
// obshttp with a fleet attached: controller -pprof, nwdeploy -pprof, ...)
// and renders /fleet — the controller's latest per-node health rollup —
// as a table; -history additionally renders the per-epoch rollup series
// from /fleet/history.
//
// -selftest runs the full acceptance loop in-process: a scenario cluster
// with a mid-run crash and a planned drain, the fleet plane attached, and
// a real HTTP server on a loopback port. It then scrapes /fleet,
// /fleet/history, and /metrics.prom over the wire and checks the paper's
// operational story: the crashed node classifies dark and the draining
// node classifies stale within one epoch, and the Prometheus exposition
// validates structurally.
//
// The plane's cost is cmd/perf's telemetry.overhead_frac; its write-only
// contract is pinned by the cluster package's fleet non-interference tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in, returning the exit
// code: 0 ok, 1 a failed scrape or selftest, 2 a flag error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:6060", "debug endpoint to scrape (/fleet, /fleet/history)")
	history := fs.Bool("history", false, "also render the per-epoch health series from /fleet/history")
	selftest := fs.Bool("selftest", false, "run the in-process acceptance loop instead of scraping")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var err error
	if *selftest {
		err = runSelftest(stdout)
	} else {
		err = scrape(stdout, *addr, *history)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fleetstat: %v\n", err)
		return 1
	}
	return 0
}

// scrape renders a live endpoint's fleet view.
func scrape(w io.Writer, addr string, withHistory bool) error {
	var snap *telemetry.FleetSnapshot
	if err := getJSON("http://"+addr+"/fleet", &snap); err != nil {
		return fmt.Errorf("scraping /fleet: %w", err)
	}
	if snap == nil {
		fmt.Fprintln(w, "no fleet snapshot yet (no epoch has closed, or no fleet is attached)")
		return nil
	}
	printSnapshot(w, snap)
	if !withHistory {
		return nil
	}
	var snaps []telemetry.FleetSnapshot
	if err := getJSON("http://"+addr+"/fleet/history", &snaps); err != nil {
		return fmt.Errorf("scraping /fleet/history: %w", err)
	}
	fmt.Fprintln(w)
	printHistory(w, snaps)
	return nil
}

func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// printSnapshot renders one rollup: the fleet totals and one row per node.
func printSnapshot(w io.Writer, s *telemetry.FleetSnapshot) {
	fmt.Fprintf(w, "# fleet @ run epoch %d (controller generation %d): %d healthy, %d stale, %d shedding, %d dark\n",
		s.RunEpoch, s.CtrlEpoch, s.Healthy, s.Stale, s.Shedding, s.Dark)
	fmt.Fprintln(w, "node\thealth\tepoch\tlag\tsilent\tstale_ep\tfetch_err\ttimeouts\tretries\tshed_width\tfloor\tsessions\talerts\tconns\tdraining")
	for _, v := range s.Nodes {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%v\t%d\t%d\t%d\t%v\n",
			v.Node, v.Health, v.Epoch, v.Lag, v.Silent, v.StaleEpochs,
			v.FetchErrors, v.FetchTimeouts, v.FetchRetries,
			v.ShedWidth, v.FloorLimited, v.Sessions, v.Alerts, v.Conns, v.Draining)
	}
}

func printHistory(w io.Writer, snaps []telemetry.FleetSnapshot) {
	fmt.Fprintln(w, "epoch\tctrl_epoch\thealthy\tstale\tshedding\tdark")
	for _, s := range snaps {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
			s.RunEpoch, s.CtrlEpoch, s.Healthy, s.Stale, s.Shedding, s.Dark)
	}
}

// maintDriver is the selftest's scripted scenario: a crash in epoch 2 and
// a planned drain in epoch 3, on an otherwise clean network.
type maintDriver struct {
	crash, drain int
}

func (d *maintDriver) Name() string { return "fleetstat-selftest" }

func (d *maintDriver) Step(env *cluster.ScenarioEnv) cluster.Stimulus {
	switch env.Epoch {
	case 2:
		return cluster.Stimulus{Faults: chaos.EpochFaults{DownNodes: []int{d.crash}}}
	case 3:
		return cluster.Stimulus{Drains: []int{d.drain}}
	}
	return cluster.Stimulus{}
}

func runSelftest(w io.Writer) error {
	const crashed, drained = 3, 2
	topo := topology.Internet2()
	metrics := obs.New()
	fleet := telemetry.NewFleet(topo.N(), telemetry.FleetOptions{})
	hist := telemetry.NewHistory(16)

	if _, err := cluster.RunScenario(cluster.ScenarioConfig{
		Driver: &maintDriver{crash: crashed, drain: drained},
		Topo:   topo, Sessions: 400, TrafficSeed: 5, Seed: 9,
		Epochs: 5, Redundancy: 2, StaleGrace: 2, Probes: 200,
		Metrics: metrics, Fleet: fleet, FleetHistory: hist,
	}); err != nil {
		return fmt.Errorf("selftest scenario: %w", err)
	}

	// Serve the real HTTP surface on an ephemeral loopback port and scrape
	// it over the wire — the same path an operator's curl takes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: obshttp.NewMux(obshttp.Options{
		Registry: metrics, Fleet: fleet, History: hist,
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close() // closes ln too
		<-served
	}()
	addr := ln.Addr().String()

	var snap *telemetry.FleetSnapshot
	if err := getJSON("http://"+addr+"/fleet", &snap); err != nil {
		return fmt.Errorf("selftest /fleet: %w", err)
	}
	if snap == nil || snap.RunEpoch != 5 {
		return fmt.Errorf("selftest /fleet: got %+v, want the epoch-5 snapshot", snap)
	}
	var snaps []telemetry.FleetSnapshot
	if err := getJSON("http://"+addr+"/fleet/history", &snaps); err != nil {
		return fmt.Errorf("selftest /fleet/history: %w", err)
	}
	if len(snaps) != 5 {
		return fmt.Errorf("selftest history: %d snapshots, want 5", len(snaps))
	}

	// The acceptance classifications, within one epoch of each event.
	if h := snaps[1].Nodes[crashed].Health; h != telemetry.Dark {
		return fmt.Errorf("selftest: crashed node classified %v in its crash epoch, want dark", h)
	}
	v := snaps[2].Nodes[drained]
	if v.Health != telemetry.Stale || !v.Draining {
		return fmt.Errorf("selftest: draining node classified %v (draining=%v), want stale via farewell", v.Health, v.Draining)
	}
	if h := snaps[4].Nodes[crashed].Health; h != telemetry.Healthy {
		return fmt.Errorf("selftest: crashed node classified %v after resync, want healthy", h)
	}

	// The Prometheus exposition must validate structurally and carry both
	// registry and fleet families.
	resp, err := http.Get("http://" + addr + "/metrics.prom")
	if err != nil {
		return fmt.Errorf("selftest /metrics.prom: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("selftest /metrics.prom: %w", err)
	}
	if err := telemetry.ValidateProm(strings.NewReader(string(body))); err != nil {
		return fmt.Errorf("selftest: /metrics.prom exposition invalid: %w", err)
	}
	for _, want := range []string{"fleet_run_epoch 5", "fleet_nodes{state=", "fleet_node_health{node="} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("selftest: /metrics.prom missing %q", want)
		}
	}

	printSnapshot(w, snap)
	fmt.Fprintln(w)
	printHistory(w, snaps)
	fmt.Fprintln(w, "selftest ok: crash->dark and drain->stale within one epoch, prom exposition valid")
	return nil
}
