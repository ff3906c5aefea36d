package control

import (
	"encoding/json"
	"math"
	"testing"

	"nwdeploy/internal/hashing"
)

func TestShedRoundTripAndDeciderSubtraction(t *testing.T) {
	plan, sessions := solvedPlan(t, 6)

	// Pick a node and unit with a wide assigned range; shed its middle half.
	node, unit := -1, -1
	var cut hashing.Range
	for j := range plan.Manifests {
		for ui, rs := range plan.Manifests[j].Ranges {
			for _, r := range rs {
				if r.Width() > 0.2 {
					node, unit = j, ui
					q := r.Width() / 4
					cut = hashing.Range{Lo: r.Lo + q, Hi: r.Hi - q}
				}
			}
		}
	}
	if node < 0 {
		t.Fatal("no assignment wide enough to shed")
	}
	u := plan.Inst.Units[unit]

	m, err := ManifestFromPlan(plan, node, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	base := NewDecider(m)

	m.Shed = ShedFromRanges(plan, map[int]hashing.RangeSet{unit: {cut}})
	if len(m.Shed) != 1 || m.Shed[0].Class != u.Class || m.Shed[0].Unit != u.Key {
		t.Fatalf("shed wire form mangled: %+v", m.Shed)
	}

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	d := NewDecider(&back)

	if got := d.ShedWidth(); math.Abs(got-cut.Width()) > 1e-12 {
		t.Fatalf("ShedWidth %v, want %v", got, cut.Width())
	}
	if math.Abs(base.AssignedWidth()-d.AssignedWidth()-cut.Width()) > 1e-12 {
		t.Fatalf("assigned width dropped by %v, want %v",
			base.AssignedWidth()-d.AssignedWidth(), cut.Width())
	}

	// The enforced ranges are the assignment minus the cut.
	want := plan.Manifests[node].Ranges[unit].Subtract(hashing.RangeSet{cut})
	got := d.UnitRanges(nil, u.Class, u.Key)
	if math.Abs(got.Width()-want.Width()) > 1e-12 {
		t.Fatalf("UnitRanges %v, want %v", got, want)
	}

	// Point audit: coverage vanishes exactly inside the cut, and UnitRanges
	// holds exactly the points CoversUnit does.
	for i := 0; i <= 1000; i++ {
		x := float64(i) / 1000
		b, g := base.CoversUnit(u.Class, u.Key, x), d.CoversUnit(u.Class, u.Key, x)
		if got.Contains(x) != g {
			t.Fatalf("x=%v: UnitRanges and CoversUnit disagree", x)
		}
		if cut.Contains(x) {
			if g {
				t.Fatalf("x=%v inside shed range still covered", x)
			}
		} else if b != g {
			t.Fatalf("x=%v outside shed range flipped: base %v shed %v", x, b, g)
		}
	}

	// Session audit: every decision the shed decider flips relative to the
	// base decider must hash into the cut on the shed unit.
	flipped := 0
	for _, s := range sessions[:1500] {
		for ci := range plan.Inst.Classes {
			b, g := base.ShouldAnalyze(ci, s), d.ShouldAnalyze(ci, s)
			if b == g {
				continue
			}
			flipped++
			if !b || g {
				t.Fatalf("shed added responsibility for session %d class %d", s.ID, ci)
			}
			if ci != u.Class {
				t.Fatalf("session %d flipped on class %d, shed only class %d", s.ID, ci, u.Class)
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no session decision changed — shed subtraction untested")
	}
}

func TestPublishShedEpochSemantics(t *testing.T) {
	plan, _ := solvedPlan(t, 7)
	ctrl, err := NewController("127.0.0.1:0", 55)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	// Find a node and unit to shed, as above but any positive width.
	node, unit := -1, -1
	var cut hashing.Range
	for j := range plan.Manifests {
		for ui, rs := range plan.Manifests[j].Ranges {
			for _, r := range rs {
				if r.Width() > 0.01 {
					node, unit = j, ui
					cut = r
				}
			}
		}
	}
	shed := ShedFromRanges(plan, map[int]hashing.RangeSet{unit: {cut}})

	agent := NewAgent(ctrl.Addr(), node)
	if _, err := agent.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if w := agent.Decider().ShedWidth(); w != 0 {
		t.Fatalf("steady-state manifest carries shed width %v", w)
	}

	// Clearing a node that never shed must not churn the epoch: agents
	// would refetch identical manifests for nothing.
	ctrl.PublishShed(node, nil)
	if e := ctrl.Epoch(); e != 1 {
		t.Fatalf("no-op shed clear bumped epoch to %d", e)
	}

	// Publishing shed bumps the epoch and reaches only the shedding node.
	ctrl.PublishShed(node, shed)
	if e := ctrl.Epoch(); e != 2 {
		t.Fatalf("epoch %d after shed publish, want 2", e)
	}
	if sub, err := agent.Subscribe(SubscribeOptions{Mode: ModeIfStale}); err != nil || !sub.Last().Changed {
		t.Fatalf("ModeIfStale after shed publish: fetched=%v err=%v", sub.Last().Changed, err)
	}
	if w := agent.Decider().ShedWidth(); math.Abs(w-cut.Width()) > 1e-12 {
		t.Fatalf("wire shed width %v, want %v", w, cut.Width())
	}
	other := NewAgent(ctrl.Addr(), (node+1)%len(plan.Manifests))
	if _, err := other.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if w := other.Decider().ShedWidth(); w != 0 {
		t.Fatalf("non-shedding node received shed width %v", w)
	}

	// An explicit clear restores the node and bumps the epoch once.
	ctrl.PublishShed(node, nil)
	if e := ctrl.Epoch(); e != 3 {
		t.Fatalf("epoch %d after shed clear, want 3", e)
	}
	if _, err := agent.Subscribe(SubscribeOptions{Mode: ModeIfStale}); err != nil {
		t.Fatal(err)
	}
	if w := agent.Decider().ShedWidth(); w != 0 {
		t.Fatalf("shed width %v after clear", w)
	}

	// A fresh plan supersedes all emergency degradation.
	ctrl.PublishShed(node, shed)
	ctrl.UpdatePlan(plan)
	if e := ctrl.Epoch(); e != 5 {
		t.Fatalf("epoch %d after shed+replan, want 5", e)
	}
	if _, err := agent.Subscribe(SubscribeOptions{Mode: ModeIfStale}); err != nil {
		t.Fatal(err)
	}
	if w := agent.Decider().ShedWidth(); w != 0 {
		t.Fatalf("replan left shed width %v in the manifest", w)
	}
}
