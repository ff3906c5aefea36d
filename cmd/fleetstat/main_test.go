package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nwdeploy/internal/cli"
)

// The benchmark mode is gone (cmd/perf is the one benchmark): -bench is an
// unknown flag, which exits 2 like any other.
func TestBenchFlagRejected(t *testing.T) {
	var out, errs bytes.Buffer
	code := cli.Fleetstat(context.Background(), []string{"-bench"}, &out, &errs)
	if code != 2 || out.Len() != 0 || !strings.Contains(errs.String(), "flag provided but not defined: -bench") {
		t.Fatalf("-bench: exit %d, stdout %q, stderr %q", code, out.String(), errs.String())
	}
}
