package cli

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwdeploy/internal/leakcheck"
	"nwdeploy/internal/obs/obshttp"
)

// TestMain fails the package if a command leaves a listener, server or
// agent goroutine behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// run calls cmd in-process and returns its exit code and output.
func run(cmd Command, args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = cmd(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

// mustRun runs cmd and fails the test unless it exits 0.
func mustRun(t *testing.T, cmd Command, args ...string) string {
	t.Helper()
	code, out, errs := run(cmd, args...)
	if code != 0 {
		t.Fatalf("%s: exit %d\nstdout: %s\nstderr: %s", strings.Join(args, " "), code, out, errs)
	}
	return out
}

// recordLedger runs a 2-epoch seeded chaos cluster with the audit ledger on
// and returns the ledger directory.
func recordLedger(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ledger")
	mustRun(t, Cluster, "-sessions", "400", "-epochs", "2", "-seed", "21", "-probes", "200",
		"-lossprob", "0.1", "-blackholeprob", "0", "-nodefailprob", "0", "-outageprob", "0",
		"-ledger", dir)
	return dir
}

// The retired benchmark modes stay retired (cmd/perf is the one benchmark):
// -bench is an unknown flag to every command, which exits 2 like any other
// flag error and prints nothing on stdout.
func TestBenchFlagRejected(t *testing.T) {
	for name, cmd := range commands {
		code, out, errs := run(cmd, "-bench")
		if code != 2 || out != "" || !strings.Contains(errs, "flag provided but not defined: -bench") {
			t.Errorf("%s -bench: exit %d, stdout %q, stderr %q", name, code, out, errs)
		}
	}
}

// -h prints the usage on stderr and exits 0, for every command.
func TestHelpExitsZero(t *testing.T) {
	for name, cmd := range commands {
		code, out, errs := run(cmd, "-h")
		if code != 0 || out != "" || !strings.Contains(errs, "Usage of "+name) {
			t.Errorf("%s -h: exit %d, stdout %q, stderr %q", name, code, out, errs)
		}
	}
}

// A -pprof address that cannot be bound fails the command before its run:
// exit 1, the address named on stderr, nothing on stdout.
func TestPprofAddressInUse(t *testing.T) {
	addr, stop, err := serveDebug("127.0.0.1:0", obshttp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, args := range [][]string{
		{"nwdeploy", "-mode", "nids"},
		{"cluster", "-sessions", "200", "-epochs", "1"},
		{"experiments", "-quick", "-only", "fig5"},
		{"controller", "-listen", "127.0.0.1:0", "-once"},
	} {
		code, out, errs := run(commands[args[0]], append(args[1:], "-pprof", addr)...)
		if code != 1 || out != "" || !strings.Contains(errs, addr) {
			t.Errorf("%v -pprof %s: exit %d, stdout %q, stderr %q", args, addr, code, out, errs)
		}
	}
}

// writeFile writes data to name under a fresh temp dir and returns its path.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
