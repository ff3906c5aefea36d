package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
)

// Fleetstat renders a live debug endpoint's fleet view, or with -selftest
// runs the fleet plane's acceptance loop. See cmd/fleetstat.
func Fleetstat(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetstat", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:6060", "debug endpoint to scrape (/fleet, /fleet/history)")
	history := fs.Bool("history", false, "also render the per-epoch health series from /fleet/history")
	selftest := fs.Bool("selftest", false, "run the in-process acceptance loop instead of scraping")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	var err error
	if *selftest {
		err = runSelftest(ctx, stdout)
	} else {
		err = scrape(ctx, stdout, *addr, *history)
	}
	if err != nil {
		return failer("fleetstat", stderr)(err)
	}
	return 0
}

// scrape renders a live endpoint's fleet view.
func scrape(ctx context.Context, w io.Writer, addr string, withHistory bool) error {
	snap, snaps, err := fetchFleet(ctx, addr, withHistory)
	if err != nil {
		return err
	}
	if snap == nil {
		fmt.Fprintln(w, "no fleet snapshot yet (no epoch has closed, or no fleet is attached)")
		return nil
	}
	printFleetView(w, snap, snaps, withHistory)
	return nil
}

// fetchFleet scrapes /fleet and, when it holds a snapshot and withHistory
// is set, /fleet/history.
func fetchFleet(ctx context.Context, addr string, withHistory bool) (*telemetry.FleetSnapshot, []telemetry.FleetSnapshot, error) {
	var snap *telemetry.FleetSnapshot
	if err := getJSON(ctx, "http://"+addr+"/fleet", &snap); err != nil {
		return nil, nil, fmt.Errorf("scraping /fleet: %w", err)
	}
	var snaps []telemetry.FleetSnapshot
	if snap != nil && withHistory {
		if err := getJSON(ctx, "http://"+addr+"/fleet/history", &snaps); err != nil {
			return nil, nil, fmt.Errorf("scraping /fleet/history: %w", err)
		}
	}
	return snap, snaps, nil
}

func getJSON(ctx context.Context, url string, v any) error {
	body, err := get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// get fetches url's body, failing on any status but 200.
func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// printFleetView renders one rollup — the fleet totals and one row per
// node — and, with history, the per-epoch series after a blank line.
func printFleetView(w io.Writer, s *telemetry.FleetSnapshot, snaps []telemetry.FleetSnapshot, withHistory bool) {
	fmt.Fprintf(w, "# fleet @ run epoch %d (controller generation %d): %d healthy, %d stale, %d shedding, %d dark\n",
		s.RunEpoch, s.CtrlEpoch, s.Healthy, s.Stale, s.Shedding, s.Dark)
	fmt.Fprintln(w, "node\thealth\tepoch\tlag\tsilent\tstale_ep\tfetch_err\ttimeouts\tretries\tshed_width\tfloor\tsessions\talerts\tconns\tdraining")
	for _, v := range s.Nodes {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%v\t%d\t%d\t%d\t%v\n",
			v.Node, v.Health, v.Epoch, v.Lag, v.Silent, v.StaleEpochs,
			v.FetchErrors, v.FetchTimeouts, v.FetchRetries,
			v.ShedWidth, v.FloorLimited, v.Sessions, v.Alerts, v.Conns, v.Draining)
	}
	if !withHistory {
		return
	}
	fmt.Fprintln(w)
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

func runSelftest(ctx context.Context, w io.Writer) error {
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
	addr, stop, err := serveDebug("127.0.0.1:0", obshttp.Options{
		Registry: metrics, Fleet: fleet, History: hist,
	})
	if err != nil {
		return err
	}
	defer stop()

	snap, snaps, err := fetchFleet(ctx, addr, true)
	if err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	if snap == nil || snap.RunEpoch != 5 {
		return fmt.Errorf("selftest /fleet: got %+v, want the epoch-5 snapshot", snap)
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
	body, err := get(ctx, "http://"+addr+"/metrics.prom")
	if err != nil {
		return fmt.Errorf("selftest /metrics.prom: %w", err)
	}
	if err := telemetry.ValidateProm(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("selftest: /metrics.prom exposition invalid: %w", err)
	}
	for _, want := range []string{"fleet_run_epoch 5", "fleet_nodes{state=", "fleet_node_health{node="} {
		if !bytes.Contains(body, []byte(want)) {
			return fmt.Errorf("selftest: /metrics.prom missing %q", want)
		}
	}

	printFleetView(w, snap, snaps, true)
	fmt.Fprintln(w, "selftest ok: crash->dark and drain->stale within one epoch, prom exposition valid")
	return nil
}
