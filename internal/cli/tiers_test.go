package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The acceptance tiers, in-process. TestSelftest is the telemetry tier.

// TestScenariosTier: the composable-scenario grid drives all five catalog
// drivers (plus the maintenance+flashcrowd composition) against the live
// cluster runtime, quick and full size, and every row must meet its
// acceptance bar — coverage floor held (or every breach post-mortemed),
// zero SLO violations under the catalog thresholds, the SYN flood visible
// to the data plane, the manifest-steering adversary's traffic flowing with
// zero evasion, and FPL's cumulative regret sublinear.
func TestScenariosTier(t *testing.T) {
	t.Parallel()
	for _, size := range [][]string{{"-quick"}, nil} {
		out := mustRun(t, Experiments, append(size, "-only", "scenarios", "-scenarios-assert")...)
		if !strings.Contains(out, "# scenarios: acceptance bar held for all ") {
			t.Fatalf("%v: no acceptance line:\n%s", size, out)
		}
	}
}

// overloadTier is the seeded bursts run with forced governor shedding
// that the audit and trace tiers record, plus extra flags.
func overloadTier(extra ...string) []string {
	return append([]string{"-scenario", "bursts", "-governor", "-redundancy", "2",
		"-sessions", "1500", "-epochs", "5", "-burstfactor", "1.8", "-burstprob", "0.5",
		"-basejitter", "0.05", "-probes", "500", "-seed", "5"}, extra...)
}

// TestAuditTier: a seeded chaos run and a seeded overload run each record
// their audit chain; auditcheck replays both offline (every chain link,
// Merkle root and blob digest against the pinned HEAD, the genesis link
// against the seed, the committed trace dump against its schema), proves
// a sampled (node, range, epoch) assignment by Merkle inclusion, and runs
// the adversarial self-test: 200 seeded single-byte corruptions across
// chain and blobs, every one of which must fail verification.
func TestAuditTier(t *testing.T) {
	t.Parallel()
	tmp := t.TempDir()
	chaosDir, overloadDir := filepath.Join(tmp, "audit_chaos"), filepath.Join(tmp, "audit_overload")
	mustRun(t, Cluster, "-sessions", "2000", "-epochs", "6", "-seed", "21", "-probes", "500",
		"-trace", filepath.Join(tmp, "audit_chaos.trace.jsonl"), "-ledger", chaosDir)
	mustRun(t, Cluster, overloadTier("-ledger", overloadDir)...)

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dir", chaosDir, "-seed", "21", "-tamper", "200"}, "tamper: all 200 seeded single-byte mutations detected"},
		{[]string{"-dir", chaosDir, "-seed", "21", "-q", "-prove", "-node", "3", "-epoch", "1",
			"-class", "0", "-k0", "3", "-k1", "-1", "-lo", "0.0", "-hi", "1.0"}, "proved: node 3 was assigned [0, 1) of class 0"},
		{[]string{"-dir", overloadDir, "-seed", "5", "-tamper", "200"}, "tamper: all 200 seeded single-byte mutations detected"},
	} {
		if out := mustRun(t, Auditcheck, tc.args...); !strings.Contains(out, tc.want) {
			t.Errorf("auditcheck %v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestTraceTier: the overload run writes its flight-recorder post-mortem
// with -workers 1 and with -workers 4; the dumps must be byte-identical
// (the tracing determinism contract) and valid against the wire schema.
func TestTraceTier(t *testing.T) {
	t.Parallel()
	tmp := t.TempDir()
	var dumps []string
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(tmp, "trace_w"+workers+".jsonl")
		mustRun(t, Cluster, overloadTier("-trace", path, "-workers", workers)...)
		dumps = append(dumps, path)
	}
	w1, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	w4, err := os.ReadFile(dumps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) == 0 || !bytes.Equal(w1, w4) {
		t.Fatalf("dumps differ across -workers (or are empty):\n%s\n--- vs ---\n%s", w1, w4)
	}
	if out := mustRun(t, Auditcheck, dumps...); strings.Count(out, ": ok — reason ") != 2 {
		t.Fatalf("auditcheck:\n%s", out)
	}
}
