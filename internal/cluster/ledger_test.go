package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/governor"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
)

func newTestLedger(seed int64) (*ledger.Ledger, *ledger.MemStore) {
	store := ledger.NewMemStore()
	return ledger.New(ledger.Options{Seed: seed, Store: store}), store
}

// verifyTestChain checks a run's chain end to end against its pinned head
// and genesis and returns the summary.
func verifyTestChain(t *testing.T, led *ledger.Ledger, store ledger.Store, seed int64) *ledger.ChainSummary {
	t.Helper()
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	sum, err := ledger.VerifyChain(led.Chain(), ledger.VerifyOptions{
		Head: led.HeadHex(), GenesisPrev: ledger.GenesisHex(seed), Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// checkVerdict decodes one committed verdict and requires it to equal w,
// the verdict its epoch's report implies.
func checkVerdict(t *testing.T, data []byte, w CoverageVerdict) {
	t.Helper()
	v, err := DecodeCoverageVerdict(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.DownNodes) == 0 {
		v.DownNodes = nil
	}
	if len(v.SLOViolations) == 0 {
		t.Fatalf("epoch %d: verdict lost the SLO strings", w.RunEpoch)
	}
	if !reflect.DeepEqual(v, w) {
		t.Fatalf("epoch %d verdict disagrees with report:\n got %+v\nwant %+v", w.RunEpoch, v, w)
	}
}

// The ledger contract, on every entry point: attaching a ledger does not
// perturb the run (same-seed reports DeepEqual with and without it), the
// chain verifies against its pinned head, its bytes are identical across
// worker counts — commits happen only on the serial epoch loop — and every
// committed verdict equals its epoch's report field for field. Governed
// runs additionally attest each node's shed floor.
func TestLedgerVerdictEqualsReport(t *testing.T) {
	slo := trace.Disabled()
	slo.MinWorstCoverage = 1.01 // unsatisfiable: every verdict carries SLO strings
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			base, want := runEntryPoint(t, ep.config, planes{wd: trace.NewWatchdog(slo)})
			n := topology.Internet2().N()
			var chains [][]byte
			for _, workers := range []int{1, 4} {
				led, store := newTestLedger(ep.seed)
				rep, _ := runEntryPoint(t, ep.config, planes{workers: workers, led: led, wd: trace.NewWatchdog(slo)})
				if !reflect.DeepEqual(base, rep) {
					t.Fatalf("ledger-on report (workers=%d) diverges from ledger-off", workers)
				}
				sum := verifyTestChain(t, led, store, ep.seed)
				if sum.Kinds[ledger.RecEpoch] != len(want) {
					t.Fatalf("chain has %d epoch records, want %d", sum.Kinds[ledger.RecEpoch], len(want))
				}
				if sum.Kinds[ledger.RecPublish] == 0 {
					t.Fatal("chain has no publish record")
				}
				chains = append(chains, led.Chain())

				epoch, shedAttested := 0, false
				for _, r := range led.Records() {
					if r.Kind != ledger.RecEpoch {
						continue
					}
					wantItems := 1
					if ep.governed {
						wantItems = n + 1
					}
					if len(r.Items) != wantItems {
						t.Fatalf("epoch record has %d items, want %d", len(r.Items), wantItems)
					}
					for _, it := range r.Items {
						switch it.Kind {
						case ledger.ItemVerdict:
							checkVerdict(t, it.Data, want[epoch])
						case ledger.ItemAttest:
							a, err := governor.DecodeAttestation(it.Data)
							if err != nil {
								t.Fatal(err)
							}
							if !a.FloorIntact {
								t.Fatalf("epoch %d node %d attested a floor breach", epoch+1, a.Node)
							}
							if a.ShedWidth > 0 {
								shedAttested = true
							}
						default:
							t.Fatalf("unexpected item kind %s in epoch record", it.Kind)
						}
					}
					epoch++
				}
				if ep.governed && !shedAttested {
					t.Fatal("no attestation recorded any shedding — scenario too tame to test anything")
				}
			}
			if !bytes.Equal(chains[0], chains[1]) {
				t.Fatal("same-seed chains differ across worker counts")
			}
		})
	}
}

// The delta-path equivalence contract on the live wire: a fault-free run
// commits byte-identical chains whether agents sync by legacy full
// fetches, JSON deltas, or binary deltas, at any worker count — six runs,
// one chain. The committed manifests are canonical, so the sync path a
// node took to reconstruct its manifest cannot leak into the audit record.
func TestChaosLedgerDeltaPathEquivalence(t *testing.T) {
	paths := []struct {
		name   string
		deltas bool
		enc    control.Encoding
	}{
		{"legacy-full", false, control.EncodingJSON},
		{"delta-json", true, control.EncodingJSON},
		{"delta-binary", true, control.EncodingBinary},
	}
	var ref []byte
	for _, p := range paths {
		for _, workers := range []int{1, 4} {
			cfg := chaosConfig(&ChaosDriver{
				Schedule:   &chaos.Schedule{}, // fault-free: every agent syncs every epoch
				ReoptEvery: 2,                 // exercise a mid-run publish record
			})
			cfg.Sessions, cfg.Epochs, cfg.Seed = 600, 4, 33
			cfg.Deltas, cfg.Encoding = p.deltas, p.enc
			cfg.Probes, cfg.Workers = 300, workers
			cfg.Retry, cfg.Agent = fastRetry, fastAgent
			led, store := newTestLedger(33)
			cfg.Ledger = led
			if _, err := RunScenario(cfg); err != nil {
				t.Fatal(err)
			}
			verifyTestChain(t, led, store, 33)
			if ref == nil {
				ref = led.Chain()
				continue
			}
			if !bytes.Equal(ref, led.Chain()) {
				t.Fatalf("%s workers=%d: chain differs from reference", p.name, workers)
			}
		}
	}
}

// The other half of the wire contract: the manifest an agent actually
// installed through delta reconstruction canonicalizes to the exact blob
// the controller committed for that node — prove-able, since every item
// carries a Merkle inclusion proof into its record's root.
func TestClusterLedgerMatchesAgentManifests(t *testing.T) {
	led, store := newTestLedger(9)
	c := newTestCluster(t, ScenarioConfig{Seed: 9, Deltas: true, Encoding: control.EncodingBinary, Ledger: led})
	c.RunEpoch(chaos.EpochFaults{})
	c.BumpEpoch()
	c.RunEpoch(chaos.EpochFaults{})
	verifyTestChain(t, led, store, 9)

	var pub ledger.Record
	for _, r := range led.Records() {
		if r.Kind == ledger.RecPublish {
			pub = r // keep the last publish
		}
	}
	if pub.Kind == "" {
		t.Fatal("no publish record committed")
	}
	for j, a := range c.agents {
		m := a.agent.Manifest()
		if m == nil {
			t.Fatalf("agent %d holds no manifest", j)
		}
		want, err := control.CanonicalManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for i, it := range pub.Items {
			if it.Key != fmt.Sprintf("node/%d", j) {
				continue
			}
			found = true
			blob, err := store.Get(it.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("node %d: committed blob differs from the agent's installed manifest", j)
			}
			p, err := ledger.RecordProof(pub, i)
			if err != nil {
				t.Fatal(err)
			}
			if !ledger.VerifyItem(pub, i, p) {
				t.Fatalf("node %d: inclusion proof does not verify", j)
			}
		}
		if !found {
			t.Fatalf("publish record has no item for node %d", j)
		}
	}
}
