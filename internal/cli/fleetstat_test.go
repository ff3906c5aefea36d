package cli

import (
	"strings"
	"testing"

	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/telemetry"
)

// TestSelftest is the fleet plane's acceptance loop (the former `make
// telemetry` tier).
func TestSelftest(t *testing.T) {
	t.Parallel()
	code, out, errs := run(Fleetstat, "-selftest")
	if code != 0 {
		t.Fatalf("-selftest: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	for _, want := range []string{
		"# fleet @ run epoch 5 ",
		"node\thealth\tepoch\t",
		"epoch\tctrl_epoch\thealthy\tstale\tshedding\tdark",
		"selftest ok: crash->dark and drain->stale within one epoch, prom exposition valid",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-selftest output missing %q:\n%s", want, out)
		}
	}
}

// Scraping an endpoint nothing listens on is a failed scrape, not a crash.
func TestScrapeUnreachable(t *testing.T) {
	code, out, errs := run(Fleetstat, "-addr", "127.0.0.1:1")
	if code != 1 || out != "" || !strings.Contains(errs, "fleetstat: scraping /fleet:") {
		t.Fatalf("unreachable scrape: exit %d, stdout %q, stderr %q", code, out, errs)
	}
}

// The README's live scrape (`fleetstat -addr ... -history` against a
// running -pprof server), against a served fleet with one closed epoch.
func TestScrapeLive(t *testing.T) {
	fleet := telemetry.NewFleet(2, telemetry.FleetOptions{})
	hist := telemetry.NewHistory(4)
	addr, stop, err := serveDebug("127.0.0.1:0", obshttp.Options{Fleet: fleet, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if out := mustRun(t, Fleetstat, "-addr", addr); !strings.HasPrefix(out, "no fleet snapshot yet") {
		t.Fatalf("before the first epoch:\n%s", out)
	}
	fleet.Report(telemetry.NodeStats{Node: 0, Epoch: 1})
	hist.Add(fleet.EndEpoch(1, 1))
	out := mustRun(t, Fleetstat, "-addr", addr, "-history")
	for _, want := range []string{
		"# fleet @ run epoch 1 (controller generation 1): 1 healthy, 0 stale, 0 shedding, 1 dark\n",
		"\n0\thealthy\t",
		"\n1\tdark\t",
		"\nepoch\tctrl_epoch\thealthy\tstale\tshedding\tdark\n1\t1\t1\t0\t0\t1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape output missing %q:\n%s", want, out)
		}
	}
}
