package control

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/traffic"
)

// decidersAgree asserts two deciders give identical DecideMask verdicts
// on every session — the verdict-for-verdict equality the delta protocol
// promises against a full fetch.
func decidersAgree(t *testing.T, a, b *Decider, sessions []traffic.Session, label string) {
	t.Helper()
	for i := range sessions {
		ma, oka := a.DecideMask(&sessions[i])
		mb, okb := b.DecideMask(&sessions[i])
		if oka != okb || ma != mb {
			t.Fatalf("%s: session %d verdicts diverge: %#x/%v vs %#x/%v",
				label, i, ma, oka, mb, okb)
		}
	}
	if a.AssignedWidth() != b.AssignedWidth() {
		t.Fatalf("%s: assigned widths diverge: %v vs %v", label, a.AssignedWidth(), b.AssignedWidth())
	}
}

// TestDeltaApplyEqualsFullManifest is the core property test: for every
// pair of manifests drawn from differently-seeded solved plans, applying
// DiffManifests' delta to the old manifest must produce a manifest whose
// decider agrees verdict-for-verdict with the new one.
func TestDeltaApplyEqualsFullManifest(t *testing.T) {
	const node = 4
	seeds := []int64{1, 2, 3, 5}
	type gen struct {
		m        *Manifest
		sessions []traffic.Session
	}
	var gens []gen
	for i, s := range seeds {
		plan, sessions := solvedPlan(t, s)
		m, err := ManifestFromPlan(plan, node, uint64(i+1), 99)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen{m, sessions})
	}
	for i := range gens {
		for j := range gens {
			if i == j {
				continue
			}
			old, new := gens[i].m, gens[j].m
			d, ok := DiffManifests(old, new)
			if !ok {
				t.Fatalf("diff %d->%d refused: same node/classes/key must diff", i, j)
			}
			applied, err := ApplyDelta(old, d)
			if err != nil {
				t.Fatalf("apply %d->%d: %v", i, j, err)
			}
			if applied.Epoch != new.Epoch {
				t.Fatalf("apply %d->%d: epoch %d, want %d", i, j, applied.Epoch, new.Epoch)
			}
			label := fmt.Sprintf("delta %d->%d", i, j)
			decidersAgree(t, NewDecider(applied), NewDecider(new), gens[j].sessions[:500], label)
		}
	}
}

// TestDeltaSequenceEqualsFullManifest applies a chain of deltas —
// including shed transitions — and requires the accumulated manifest to
// match a direct fetch of the final generation.
func TestDeltaSequenceEqualsFullManifest(t *testing.T) {
	const node = 2
	plan1, sessions := solvedPlan(t, 7)
	plan2, _ := solvedPlan(t, 8)
	m1, _ := ManifestFromPlan(plan1, node, 1, 5)
	m2, _ := ManifestFromPlan(plan2, node, 2, 5)
	m3, _ := ManifestFromPlan(plan2, node, 3, 5)
	m3.Shed = []WireAssignment{{Class: 0, Unit: m3.Assignments[0].Unit,
		Ranges: []WireRange{m3.Assignments[0].Ranges[0]}}}
	m4, _ := ManifestFromPlan(plan1, node, 4, 5)

	cur := m1
	for _, next := range []*Manifest{m2, m3, m4} {
		d, ok := DiffManifests(cur, next)
		if !ok {
			t.Fatalf("diff to epoch %d refused", next.Epoch)
		}
		applied, err := ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		decidersAgree(t, NewDecider(applied), NewDecider(next), sessions[:500],
			fmt.Sprintf("chain epoch %d", next.Epoch))
		cur = applied
	}
}

// TestDiffManifestsRefusals: node, hash-key, and class-table changes must
// refuse to diff (the full-manifest fallback), and a base mismatch must
// surface ErrDeltaGap on apply.
func TestDiffManifestsRefusals(t *testing.T) {
	plan, _ := solvedPlan(t, 1)
	m1, _ := ManifestFromPlan(plan, 1, 1, 5)
	m2, _ := ManifestFromPlan(plan, 1, 2, 5)

	other, _ := ManifestFromPlan(plan, 2, 2, 5)
	if _, ok := DiffManifests(m1, other); ok {
		t.Fatal("diff across nodes must refuse")
	}
	rekeyed, _ := ManifestFromPlan(plan, 1, 2, 6)
	if _, ok := DiffManifests(m1, rekeyed); ok {
		t.Fatal("diff across hash keys must refuse")
	}
	reclassed, _ := ManifestFromPlan(plan, 1, 2, 5)
	reclassed.Classes = append([]WireClass(nil), reclassed.Classes...)
	reclassed.Classes[0].Name = "renamed"
	if _, ok := DiffManifests(m1, reclassed); ok {
		t.Fatal("diff across class tables must refuse")
	}

	d, ok := DiffManifests(m1, m2)
	if !ok {
		t.Fatal("plain epoch bump must diff")
	}
	stale, _ := ManifestFromPlan(plan, 1, 7, 5)
	if _, err := ApplyDelta(stale, d); !errors.Is(err, ErrDeltaGap) {
		t.Fatalf("base mismatch returned %v, want ErrDeltaGap", err)
	}
}

// TestPublishedPlanIsOwned: the controller diffs every delta against the
// generations it retained, so it must own them. A caller that publishes
// plan A, then rewrites A's range slices in place (here, to B's values) and
// publishes B, must not change what an agent holding A is sent: the delta
// from A's epoch has to bring it to exactly the bytes a full fetch of B
// gives. B is A's instance with its volumes perturbed, so the two share
// units and differ in ranges.
func TestPublishedPlanIsOwned(t *testing.T) {
	planA, _ := solvedPlan(t, 4)
	pkts := make([]float64, len(planA.Inst.Units))
	items := make([]float64, len(planA.Inst.Units))
	for ui, u := range planA.Inst.Units {
		f := 1 + 0.5*math.Sin(float64(ui))
		pkts[ui], items[ui] = u.Pkts*f, u.Items*f
	}
	instB, err := planA.Inst.WithVolumes(pkts, items)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := core.Solve(instB, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The node with the most range sets that A and B both hold, at the same
	// length and with different bounds.
	rewritable := func(node int) (uis []int) {
		for ui, rs := range planA.Manifests[node].Ranges {
			if want := planB.Manifests[node].Ranges[ui]; len(want) == len(rs) && !reflect.DeepEqual(want, rs) {
				uis = append(uis, ui)
			}
		}
		return uis
	}
	node := 0
	for j := range planA.Manifests {
		if len(rewritable(j)) > len(rewritable(node)) {
			node = j
		}
	}
	uis := rewritable(node)
	if len(uis) == 0 {
		t.Fatal("test premise broken: no range set of A can be rewritten in place to B's")
	}

	ctrl, err := NewController("127.0.0.1:0", 777)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	opts := SubscribeOptions{Mode: ModeIfStale, Deltas: true, Encoding: EncodingBinary}
	deltaAgent := NewAgent(ctrl.Addr(), node)
	ctrl.UpdatePlan(planA)
	if _, err := deltaAgent.Subscribe(opts); err != nil {
		t.Fatal(err)
	}
	for _, ui := range uis {
		copy(planA.Manifests[node].Ranges[ui], planB.Manifests[node].Ranges[ui])
	}
	ctrl.UpdatePlan(planB)
	sub, err := deltaAgent.Subscribe(opts)
	if err != nil {
		t.Fatal(err)
	}
	if u := sub.Last(); !u.Changed || u.Full || u.Epoch != 2 {
		t.Fatalf("sync after publishing B: %+v, want a delta install of epoch 2", u)
	}
	fullAgent := NewAgent(ctrl.Addr(), node)
	if _, err := fullAgent.Subscribe(SubscribeOptions{Mode: ModeOnce}); err != nil {
		t.Fatal(err)
	}
	got, err := CanonicalManifest(deltaAgent.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	want, err := CanonicalManifest(fullAgent.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("node %d: after %d range sets of A were rewritten post-publish, the delta-synced manifest differs from a full fetch of B", node, len(uis))
	}
}

// TestSubscribeDeltaEndToEnd drives the full v2 path over real TCP: a
// delta-subscribed agent and a plain full-fetch agent must agree verdict
// for verdict after every publish, in both encodings, and the delta agent
// must actually sync via deltas (not silent full fallbacks).
func TestSubscribeDeltaEndToEnd(t *testing.T) {
	for _, enc := range []Encoding{EncodingJSON, EncodingBinary} {
		name := map[Encoding]string{EncodingJSON: "json", EncodingBinary: "bin"}[enc]
		t.Run(name, func(t *testing.T) {
			plan1, sessions := solvedPlan(t, 4)
			plan2, _ := solvedPlan(t, 9)
			ctrl, err := NewController("127.0.0.1:0", 777)
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Close()
			ctrl.UpdatePlan(plan1)

			const node = 3
			deltaAgent := NewAgent(ctrl.Addr(), node)
			fullAgent := NewAgent(ctrl.Addr(), node)
			opts := SubscribeOptions{Mode: ModeIfStale, Deltas: true, Encoding: enc}

			// First sync: no base manifest, so the delta exchange falls
			// back to a full manifest.
			sub, err := deltaAgent.Subscribe(opts)
			if err != nil {
				t.Fatal(err)
			}
			if u := sub.Last(); !u.Changed || !u.Full || u.Epoch != 1 {
				t.Fatalf("first sync: %+v, want full install of epoch 1", u)
			}

			if _, err := fullAgent.Subscribe(SubscribeOptions{Mode: ModeOnce}); err != nil {
				t.Fatal(err)
			}
			decidersAgree(t, deltaAgent.Decider(), fullAgent.Decider(), sessions[:400], "epoch 1")

			// Steady state: the delta exchange doubles as the probe.
			sub, err = deltaAgent.Subscribe(opts)
			if err != nil {
				t.Fatal(err)
			}
			if u := sub.Last(); u.Changed || u.Epoch != 1 {
				t.Fatalf("steady-state sync: %+v, want unchanged epoch 1", u)
			}

			// Plan change: this sync must install via a delta.
			ctrl.UpdatePlan(plan2)
			sub, err = deltaAgent.Subscribe(opts)
			if err != nil {
				t.Fatal(err)
			}
			if u := sub.Last(); !u.Changed || u.Full || u.Epoch != 2 {
				t.Fatalf("post-publish sync: %+v, want delta install of epoch 2", u)
			}
			if _, err := fullAgent.Subscribe(SubscribeOptions{Mode: ModeOnce}); err != nil {
				t.Fatal(err)
			}
			decidersAgree(t, deltaAgent.Decider(), fullAgent.Decider(), sessions[:400], "epoch 2")

			// Shed publish: delta carries the shed replacement.
			ctrl.PublishShed(node, []WireAssignment{{
				Class: 0, Unit: plan2.Inst.Units[0].Key,
				Ranges: []WireRange{{Lo: 0, Hi: 1}},
			}})
			sub, err = deltaAgent.Subscribe(opts)
			if err != nil {
				t.Fatal(err)
			}
			if u := sub.Last(); !u.Changed || u.Full {
				t.Fatalf("shed sync: %+v, want delta install", u)
			}
			if _, err := fullAgent.Subscribe(SubscribeOptions{Mode: ModeOnce}); err != nil {
				t.Fatal(err)
			}
			decidersAgree(t, deltaAgent.Decider(), fullAgent.Decider(), sessions[:400], "shed epoch")
			if deltaAgent.Decider().ShedWidth() == 0 {
				t.Fatal("shed did not reach the delta agent")
			}
		})
	}
}

// TestSubscribeEpochGapFallsBackToFull ages the agent's held epoch out of
// the controller's delta history and requires a clean full-manifest
// resync.
func TestSubscribeEpochGapFallsBackToFull(t *testing.T) {
	plan, _ := solvedPlan(t, 4)
	ctrl, err := NewController("127.0.0.1:0", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	a := NewAgent(ctrl.Addr(), 1)
	opts := SubscribeOptions{Mode: ModeIfStale, Deltas: true}
	if _, err := a.Subscribe(opts); err != nil {
		t.Fatal(err)
	}

	// Push the history window past the agent's held epoch 1.
	for i := 0; i < deltaHistory; i++ {
		ctrl.UpdatePlan(plan)
	}
	sub, err := a.Subscribe(opts)
	if err != nil {
		t.Fatal(err)
	}
	if u := sub.Last(); !u.Changed || !u.Full || u.Epoch != deltaHistory+1 {
		t.Fatalf("gap sync: %+v, want full install of epoch %d", u, deltaHistory+1)
	}

	// Within the window again: back to deltas.
	ctrl.UpdatePlan(plan)
	sub, err = a.Subscribe(opts)
	if err != nil {
		t.Fatal(err)
	}
	if u := sub.Last(); !u.Changed || u.Full || u.Epoch != deltaHistory+2 {
		t.Fatalf("in-window sync: %+v, want delta install of epoch %d", u, deltaHistory+2)
	}
}

// legacyV1Controller is a minimal pre-v2 controller: full-JSON manifests
// only, "unknown op" for anything else — exactly what an old binary in
// the field answers a v2 request with.
type legacyV1Controller struct {
	ln       net.Listener
	manifest *Manifest
	deltaOps atomic.Int64
}

func startLegacyV1(t *testing.T, m *Manifest) *legacyV1Controller {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lc := &legacyV1Controller{ln: ln, manifest: m}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req request
				line, err := bufio.NewReader(conn).ReadBytes('\n')
				if err != nil || json.Unmarshal(line, &req) != nil {
					return
				}
				enc := json.NewEncoder(conn)
				switch req.Op {
				case "epoch":
					_ = enc.Encode(response{Epoch: lc.manifest.Epoch})
				case "manifest":
					_ = enc.Encode(response{Epoch: lc.manifest.Epoch, Manifest: lc.manifest})
				default:
					if req.Op == "delta" {
						lc.deltaOps.Add(1)
					}
					_ = enc.Encode(response{Epoch: lc.manifest.Epoch, Err: fmt.Sprintf("unknown op %q", req.Op)})
				}
			}()
		}
	}()
	return lc
}

// TestSubscribeDowngradesAgainstV1Controller: a delta subscription
// against an old controller must transparently downgrade to full JSON
// fetches — once — and never retry the delta op on later syncs.
func TestSubscribeDowngradesAgainstV1Controller(t *testing.T) {
	plan, sessions := solvedPlan(t, 4)
	m, err := ManifestFromPlan(plan, 3, 1, 777)
	if err != nil {
		t.Fatal(err)
	}
	lc := startLegacyV1(t, m)
	defer lc.ln.Close()

	a := NewAgent(lc.ln.Addr().String(), 3)
	opts := SubscribeOptions{Mode: ModeIfStale, Deltas: true, Encoding: EncodingBinary}
	sub, err := a.Subscribe(opts)
	if err != nil {
		t.Fatalf("downgrade sync failed: %v", err)
	}
	if u := sub.Last(); !u.Changed || !u.Full || u.Epoch != 1 {
		t.Fatalf("downgrade sync: %+v, want full install of epoch 1", u)
	}
	if got := lc.deltaOps.Load(); got != 1 {
		t.Fatalf("v1 controller saw %d delta ops on first sync, want 1", got)
	}
	full := NewDecider(m)
	decidersAgree(t, a.Decider(), full, sessions[:300], "downgraded")

	// Later syncs go straight to the legacy exchange: no more delta ops.
	for i := 0; i < 3; i++ {
		if _, err := a.Subscribe(opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := lc.deltaOps.Load(); got != 1 {
		t.Fatalf("v1 controller saw %d delta ops after downgrade, want 1 (downgrade must latch)", got)
	}
}

// TestSubscribeModeOnceMatchesSync: the one-shot sync is one full-manifest
// exchange, and what it installs decides exactly as the manifest the
// controller built does in-process.
func TestSubscribeModeOnceMatchesSync(t *testing.T) {
	plan, sessions := solvedPlan(t, 4)
	ctrl, err := NewController("127.0.0.1:0", 777)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	want, err := ManifestFromPlan(plan, 2, 1, 777)
	if err != nil {
		t.Fatal(err)
	}
	viaSubscribe := NewAgent(ctrl.Addr(), 2)
	sub, err := viaSubscribe.Subscribe(SubscribeOptions{Mode: ModeOnce})
	if err != nil {
		t.Fatal(err)
	}
	if u := sub.Last(); u.Epoch != 1 || !u.Changed || !u.Full {
		t.Fatalf("ModeOnce update: %+v", u)
	}
	if !reflect.DeepEqual(viaSubscribe.Manifest(), want) {
		t.Fatalf("installed manifest differs from the controller's:\n got %+v\nwant %+v", viaSubscribe.Manifest(), want)
	}
	decidersAgree(t, NewDecider(want), viaSubscribe.Decider(), sessions[:300], "in-process vs subscribe")
}
