package main

import (
	"bytes"
	"strings"
	"testing"
)

// fleetstat runs the command in-process.
func fleetstat(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestSelftest(t *testing.T) {
	code, out, errs := fleetstat("-selftest")
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
	code, out, errs := fleetstat("-addr", "127.0.0.1:1")
	if code != 1 || out != "" || !strings.Contains(errs, "fleetstat: scraping /fleet:") {
		t.Fatalf("unreachable scrape: exit %d, stdout %q, stderr %q", code, out, errs)
	}
}

// The benchmark mode is gone (cmd/perf is the one benchmark): -bench is an
// unknown flag, which exits 2 like any other.
func TestBenchFlagRejected(t *testing.T) {
	code, out, errs := fleetstat("-bench")
	if code != 2 || out != "" || !strings.Contains(errs, "flag provided but not defined: -bench") {
		t.Fatalf("-bench: exit %d, stdout %q, stderr %q", code, out, errs)
	}
}
