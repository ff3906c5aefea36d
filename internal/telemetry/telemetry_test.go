package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nwdeploy/internal/obs"
)

func TestNilFleetIsNoOp(t *testing.T) {
	var f *Fleet
	f.Report(NodeStats{Node: 0})
	if snap := f.EndEpoch(1, 1); !reflect.DeepEqual(snap, FleetSnapshot{}) {
		t.Fatalf("nil EndEpoch = %+v, want zero", snap)
	}
	if f.Latest() != nil {
		t.Fatal("nil Latest should be nil")
	}

	var h *History
	h.Add(FleetSnapshot{})
	if h.Len() != 0 {
		t.Fatal("nil History Len != 0")
	}
	if h.Snapshots() != nil {
		t.Fatal("nil History Snapshots != nil")
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil WriteJSON = %q, want []", buf.String())
	}
}

func TestClassification(t *testing.T) {
	f := NewFleet(1, FleetOptions{})
	cases := []struct {
		name   string
		s      NodeStats
		silent int
		want   Health
	}{
		{"fresh synced", NodeStats{Epoch: 3}, 0, Healthy},
		{"lagging", NodeStats{Epoch: 2, Lag: 1}, 0, Stale},
		{"stale epochs", NodeStats{StaleEpochs: 2}, 0, Stale},
		{"shedding", NodeStats{Epoch: 3, ShedWidth: 0.25}, 0, Shedding},
		{"floor limited", NodeStats{Epoch: 3, FloorLimited: true}, 0, Shedding},
		{"shed wins over lag", NodeStats{Lag: 1, ShedWidth: 0.1}, 0, Shedding},
		{"draining report", NodeStats{Draining: true}, 0, Stale},
		{"silent one epoch", NodeStats{Epoch: 3}, 1, Dark},
		{"drained silent within grace", NodeStats{Draining: true}, 4, Stale},
		{"drained silent past grace", NodeStats{Draining: true}, 5, Dark},
	}
	for _, c := range cases {
		if got := f.classify(c.s, c.silent); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}

	// A larger DarkAfter keeps a silent node stale longer.
	f2 := NewFleet(1, FleetOptions{DarkAfter: 3})
	if got := f2.classify(NodeStats{}, 2); got != Stale {
		t.Errorf("DarkAfter=3, silent=2: %v, want stale", got)
	}
	if got := f2.classify(NodeStats{}, 3); got != Dark {
		t.Errorf("DarkAfter=3, silent=3: %v, want dark", got)
	}
}

func TestEndEpochSilenceAndCounts(t *testing.T) {
	f := NewFleet(3, FleetOptions{DarkAfter: 2})

	// Epoch 1: nodes 0 and 1 report, node 2 never has.
	f.Report(NodeStats{Node: 0, Epoch: 1})
	f.Report(NodeStats{Node: 1, Epoch: 1, ShedWidth: 0.5})
	snap := f.EndEpoch(1, 1)
	if snap.RunEpoch != 1 || snap.CtrlEpoch != 1 {
		t.Fatalf("snapshot epochs = %d/%d", snap.RunEpoch, snap.CtrlEpoch)
	}
	if snap.Healthy != 1 || snap.Shedding != 1 || snap.Stale != 1 || snap.Dark != 0 {
		t.Fatalf("epoch 1 counts = %+v", snap.Counts())
	}
	if snap.Nodes[2].Silent != 1 || snap.Nodes[2].Health != Stale {
		t.Fatalf("never-seen node = %+v", snap.Nodes[2])
	}

	// Epoch 2: only node 0 reports; node 2 crosses DarkAfter.
	f.Report(NodeStats{Node: 0, Epoch: 2})
	snap = f.EndEpoch(2, 2)
	if snap.Nodes[1].Silent != 1 || snap.Nodes[1].Health != Stale {
		t.Fatalf("one-epoch-silent node = %+v", snap.Nodes[1])
	}
	if snap.Nodes[2].Silent != 2 || snap.Nodes[2].Health != Dark {
		t.Fatalf("dark node = %+v", snap.Nodes[2])
	}
	if snap.Healthy != 1 || snap.Stale != 1 || snap.Dark != 1 {
		t.Fatalf("epoch 2 counts = %+v", snap.Counts())
	}

	// Duplicate reports in a round are last-write-wins.
	f.Report(NodeStats{Node: 0, Epoch: 2})
	f.Report(NodeStats{Node: 0, Epoch: 3})
	snap = f.EndEpoch(3, 3)
	if snap.Nodes[0].Epoch != 3 {
		t.Fatalf("duplicate report not last-write-wins: %+v", snap.Nodes[0])
	}

	// Out-of-range reports are dropped, not panics.
	f.Report(NodeStats{Node: -1})
	f.Report(NodeStats{Node: 99})
}

func TestLatestReturnsCopy(t *testing.T) {
	f := NewFleet(2, FleetOptions{})
	if f.Latest() != nil {
		t.Fatal("Latest before any epoch should be nil")
	}
	f.Report(NodeStats{Node: 0})
	f.EndEpoch(1, 1)
	a := f.Latest()
	a.Nodes[0].Alerts = 999
	if b := f.Latest(); b.Nodes[0].Alerts == 999 {
		t.Fatal("Latest aliases internal state")
	}
}

func TestHealthJSONRoundTrip(t *testing.T) {
	for _, h := range []Health{Healthy, Stale, Shedding, Dark} {
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + h.String() + `"`; string(b) != want {
			t.Fatalf("marshal %v = %s, want %s", h, b, want)
		}
		var back Health
		if err := json.Unmarshal(b, &back); err != nil || back != h {
			t.Fatalf("round trip %v -> %v (%v)", h, back, err)
		}
	}
	var h Health
	if err := json.Unmarshal([]byte(`"bogus"`), &h); err == nil {
		t.Fatal("unknown health should not unmarshal")
	}
}

func TestNodeStatsOmitempty(t *testing.T) {
	b, err := json.Marshal(NodeStats{Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"node":3}` {
		t.Fatalf("zero-report marshal = %s, want only the node id", b)
	}
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	for e := 1; e <= 5; e++ {
		h.Add(FleetSnapshot{RunEpoch: e})
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	snaps := h.Snapshots()
	got := []int{snaps[0].RunEpoch, snaps[1].RunEpoch, snaps[2].RunEpoch}
	if !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("ring kept %v, want oldest-first [3 4 5]", got)
	}

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []FleetSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output not parseable: %v", err)
	}
	if len(back) != 3 || back[0].RunEpoch != 3 {
		t.Fatalf("decoded history = %+v", back)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"cluster.epochs":  "cluster_epochs",
		"fetch-ns":        "fetch_ns",
		"ok_name:sub":     "ok_name:sub",
		"9lives":          "_9lives",
		"":                "_",
		"solve ns (p99)!": "solve_ns__p99__",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePromValidates(t *testing.T) {
	r := obs.New()
	r.Counter("cluster.epochs").Add(5)
	r.Gauge("governor.shed-width").Set(0.25)
	hist := r.Histogram("fetch.ns")
	for _, v := range []int64{100, 200, 400, 800, 1600} {
		hist.Observe(v)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cluster_epochs counter",
		"cluster_epochs 5",
		"# TYPE governor_shed_width gauge",
		"# TYPE fetch_ns summary",
		`fetch_ns{quantile="0.5"}`,
		`fetch_ns{quantile="0.99"}`,
		"fetch_ns_sum 3100",
		"fetch_ns_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
	if err := ValidateProm(strings.NewReader(out)); err != nil {
		t.Fatalf("WriteProm output does not validate: %v", err)
	}
}

func TestWriteFleetPromValidates(t *testing.T) {
	if err := WriteFleetProm(&bytes.Buffer{}, nil); err != nil {
		t.Fatalf("nil snapshot: %v", err)
	}

	f := NewFleet(3, FleetOptions{})
	f.Report(NodeStats{Node: 0, Epoch: 2, Sessions: 120, Alerts: 3, Conns: 40})
	f.Report(NodeStats{Node: 1, Epoch: 2, ShedWidth: 0.5})
	snap := f.EndEpoch(1, 2)

	var buf bytes.Buffer
	if err := WriteFleetProm(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fleet_run_epoch 1",
		"fleet_ctrl_epoch 2",
		`fleet_nodes{state="healthy"} 1`,
		`fleet_nodes{state="shedding"} 1`,
		`fleet_nodes{state="dark"} 1`,
		`fleet_node_health{node="2",state="dark"} 1`,
		`fleet_node_sessions{node="0"} 120`,
		`fleet_node_shed_width{node="1"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteFleetProm output missing %q:\n%s", want, out)
		}
	}
	if err := ValidateProm(strings.NewReader(out)); err != nil {
		t.Fatalf("WriteFleetProm output does not validate: %v", err)
	}
}

func TestValidatePromRejects(t *testing.T) {
	bad := []string{
		"",                               // no samples
		"bad-name 1\n",                   // invalid name
		"ok {label=\"x\"\n",              // unterminated labels / missing value
		"ok{label=nope} 1\n",             // unquoted label value
		"ok 1\n# TYPE ok wat\nok 2\n",    // unknown type
		"ok\n",                           // missing value
		"ok{a=\"1\"} notanumber\n",       // bad value
		"# TYPE only a comment here 5\n", // malformed TYPE, no samples
	}
	for _, in := range bad {
		if err := ValidateProm(strings.NewReader(in)); err == nil {
			t.Errorf("ValidateProm(%q) accepted invalid input", in)
		}
	}
	if err := ValidateProm(strings.NewReader("ok{a=\"1\",b=\"2\"} 3.5\n")); err != nil {
		t.Errorf("valid line rejected: %v", err)
	}
}

// Len reports how many snapshots are currently retained.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// FuzzValidateProm feeds ValidateProm arbitrary scrape bodies, which
// fleetstat reads from the network: it must never panic.
func FuzzValidateProm(f *testing.F) {
	r := obs.New()
	r.Counter("cluster.epochs").Add(5)
	r.Histogram("fetch.ns").Observe(100)
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("ok{a=\"1\",b=\"2\"} 3.5\n")
	f.Add("ok{label=\"x\"\n")
	f.Add("{ 1\n# TYPE\n")
	f.Add("ok{=\"\"} 1\nok{a} 1\n")

	f.Fuzz(func(t *testing.T, body string) {
		_ = ValidateProm(strings.NewReader(body))
	})
}
