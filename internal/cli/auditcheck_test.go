package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwdeploy/internal/ledger"
)

func TestVerifyProveTamper(t *testing.T) {
	t.Parallel()
	dir := recordLedger(t)

	code, out, errs := run(Auditcheck, "-dir", dir, "-seed", "21")
	if code != 0 || !strings.Contains(out, ": ok — ") || !strings.Contains(out, "publish") || !strings.Contains(out, "epoch") {
		t.Fatalf("verify: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}

	code, out, errs = run(Auditcheck, "-dir", dir, "-seed", "21", "-q", "-prove", "-node", "3", "-epoch", "1")
	if code != 0 || !strings.Contains(out, "manifest: record seq") || !strings.Contains(out, "inclusion proof (leaf") {
		t.Fatalf("prove: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if strings.Contains(out, ": ok — ") {
		t.Fatalf("-q did not suppress the summary:\n%s", out)
	}

	code, out, errs = run(Auditcheck, "-dir", dir, "-seed", "21", "-tamper", "50")
	if code != 0 || !strings.Contains(out, "tamper: all 50 seeded single-byte mutations detected") {
		t.Fatalf("tamper: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
}

func TestFailuresExitNonZero(t *testing.T) {
	t.Parallel()
	dir := recordLedger(t)

	// The wrong seed breaks the genesis link.
	if code, _, errs := run(Auditcheck, "-dir", dir, "-seed", "22"); code != 1 || !strings.Contains(errs, "verification FAILED") {
		t.Fatalf("wrong seed: exit %d, stderr %q", code, errs)
	}
	// A node the run never had cannot be proved.
	if code, _, errs := run(Auditcheck, "-dir", dir, "-q", "-prove", "-node", "99", "-epoch", "1"); code != 1 || !strings.Contains(errs, "no manifest for node 99") {
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
	if code, _, errs := run(Auditcheck, "-dir", dir, "-seed", "21"); code != 1 || !strings.Contains(errs, "verification FAILED") {
		t.Fatalf("tampered chain: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := run(Auditcheck); code != 1 || !strings.Contains(errs, "usage:") {
		t.Fatalf("no -dir: exit %d, stderr %q", code, errs)
	}
}

// auditcheck -dir schema-checks the trace dump a -trace -ledger run
// commits, beside validating loose dumps: a committed blob whose digests
// verify but which breaks the trace schema fails.
func TestLedgerTraceRecordValidated(t *testing.T) {
	t.Parallel()
	tmp := t.TempDir()
	dir, dump := filepath.Join(tmp, "ledger"), filepath.Join(tmp, "run.trace.jsonl")
	mustRun(t, Cluster, "-sessions", "300", "-epochs", "2", "-seed", "4", "-probes", "100",
		"-blackholeprob", "0", "-trace", dump, "-ledger", dir)
	out := mustRun(t, Auditcheck, "-dir", dir, "-seed", "4", dump)
	if !strings.Contains(out, "  trace    1\n") || !strings.Contains(out, dump+": ok — reason ") {
		t.Fatalf("verify + dump:\n%s", out)
	}

	bad := filepath.Join(tmp, "bad")
	lw, err := createLedger(bad, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := lw.led.Begin(ledger.RecTrace, 0)
	b.Blob(ledger.ItemTrace, "dump", []byte(`{"not":"a dump"}`+"\n"), nil)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := lw.seal(); err != nil {
		t.Fatal(err)
	}
	if code, out, errs := run(Auditcheck, "-dir", bad, "-seed", "4"); code != 1 || out != "" || !strings.Contains(errs, "trace dump") {
		t.Fatalf("schema-breaking trace record: exit %d, stdout %q, stderr %q", code, out, errs)
	}
}
