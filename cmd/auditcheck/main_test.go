package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/control"
	"nwdeploy/internal/ledger"
)

const runSeed = 21

// recordLedger runs a 2-epoch seeded chaos cluster with the audit ledger on
// and lays the result out the way cmd/cluster -ledger does: chain.jsonl,
// HEAD, objects/.
func recordLedger(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	store, err := ledger.NewDirStore(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New(ledger.Options{Seed: runSeed, Store: store})
	if _, err := cluster.CoverageUnderChaos(cluster.ChaosConfig{
		Sessions: 400, Epochs: 2, Seed: runSeed,
		Faults: chaos.NetworkFaults{DropProb: 0.1},
		Agent:  control.AgentOptions{DialTimeout: time.Second, RPCTimeout: time.Second},
		Probes: 200, Ledger: led,
	}); err != nil {
		t.Fatal(err)
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chain.jsonl"), led.Chain(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "HEAD"), []byte(led.HeadHex()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// auditcheck runs the command in-process.
func auditcheck(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestVerifyProveTamper(t *testing.T) {
	dir := recordLedger(t)

	code, out, errs := auditcheck("-dir", dir, "-seed", "21")
	if code != 0 || !strings.Contains(out, ": ok — ") || !strings.Contains(out, "publish") || !strings.Contains(out, "epoch") {
		t.Fatalf("verify: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}

	code, out, errs = auditcheck("-dir", dir, "-seed", "21", "-q", "-prove", "-node", "3", "-epoch", "1")
	if code != 0 || !strings.Contains(out, "manifest: record seq") || !strings.Contains(out, "inclusion proof (leaf") {
		t.Fatalf("prove: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if strings.Contains(out, ": ok — ") {
		t.Fatalf("-q did not suppress the summary:\n%s", out)
	}

	code, out, errs = auditcheck("-dir", dir, "-seed", "21", "-tamper", "50")
	if code != 0 || !strings.Contains(out, "tamper: all 50 seeded single-byte mutations detected") {
		t.Fatalf("tamper: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
}

func TestFailuresExitNonZero(t *testing.T) {
	dir := recordLedger(t)

	// The wrong seed breaks the genesis link.
	if code, _, errs := auditcheck("-dir", dir, "-seed", "22"); code != 1 || !strings.Contains(errs, "verification FAILED") {
		t.Fatalf("wrong seed: exit %d, stderr %q", code, errs)
	}
	// A node the run never had cannot be proved.
	if code, _, errs := auditcheck("-dir", dir, "-q", "-prove", "-node", "99", "-epoch", "1"); code != 1 || !strings.Contains(errs, "no manifest for node 99") {
		t.Fatalf("unknown node: exit %d, stderr %q", code, errs)
	}
	// One flipped byte in the chain file fails the replay.
	chainPath := filepath.Join(dir, "chain.jsonl")
	chain, err := os.ReadFile(chainPath)
	if err != nil {
		t.Fatal(err)
	}
	chain[len(chain)/2] ^= 0x01
	if err := os.WriteFile(chainPath, chain, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errs := auditcheck("-dir", dir, "-seed", "21"); code != 1 || !strings.Contains(errs, "verification FAILED") {
		t.Fatalf("tampered chain: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := auditcheck(); code != 1 || !strings.Contains(errs, "usage:") {
		t.Fatalf("no -dir: exit %d, stderr %q", code, errs)
	}
}

// The benchmark mode is gone (cmd/perf is the one benchmark): -bench is an
// unknown flag, which exits 2 like any other.
func TestBenchFlagRejected(t *testing.T) {
	code, out, errs := auditcheck("-bench")
	if code != 2 || out != "" || !strings.Contains(errs, "flag provided but not defined: -bench") {
		t.Fatalf("-bench: exit %d, stdout %q, stderr %q", code, out, errs)
	}
}
