package topology

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestInternet2Shape(t *testing.T) {
	i2 := Internet2()
	if i2.N() != 11 {
		t.Fatalf("Internet2 has %d nodes, want 11", i2.N())
	}
	if len(i2.Links) != 14 {
		t.Fatalf("Internet2 has %d links, want 14", len(i2.Links))
	}
	if !i2.Connected() {
		t.Fatal("Internet2 must be connected")
	}
	ny, ok := i2.NodeByName("NYCM")
	if !ok || ny.City != "New York" {
		t.Fatalf("NYCM lookup failed: %+v ok=%v", ny, ok)
	}
	// New York must be the largest gravity endpoint (the paper's Figure 8
	// discussion hinges on it).
	if top := i2.SortedByPopulation()[0]; top != ny.ID {
		t.Fatalf("largest population node = %d, want NYCM (%d)", top, ny.ID)
	}
}

func TestGeantShape(t *testing.T) {
	g := Geant()
	if g.N() != 22 {
		t.Fatalf("Geant has %d nodes, want 22", g.N())
	}
	if !g.Connected() {
		t.Fatal("Geant must be connected")
	}
	for i := range g.Nodes {
		if g.Degree(i) == 0 {
			t.Fatalf("node %d (%s) has no links", i, g.Nodes[i].City)
		}
	}
}

func TestRocketfuelLikeDeterministic(t *testing.T) {
	for _, spec := range []RocketfuelSpec{AS1221, AS1239, AS3257} {
		a := RocketfuelLike(spec)
		b := RocketfuelLike(spec)
		if a.N() != spec.PoPs {
			t.Fatalf("%s: %d nodes, want %d", spec.Name, a.N(), spec.PoPs)
		}
		if len(a.Links) != len(b.Links) {
			t.Fatalf("%s: generator is not deterministic", spec.Name)
		}
		for i := range a.Links {
			if a.Links[i] != b.Links[i] {
				t.Fatalf("%s: link %d differs between runs", spec.Name, i)
			}
		}
		if !a.Connected() {
			t.Fatalf("%s: disconnected", spec.Name)
		}
	}
}

func TestShortestPathProperties(t *testing.T) {
	i2 := Internet2()
	pm := i2.PathMatrix()
	for a := 0; a < i2.N(); a++ {
		for b := 0; b < i2.N(); b++ {
			path := pm[a][b]
			if len(path) == 0 {
				t.Fatalf("no path %d->%d", a, b)
			}
			if path[0] != a || path[len(path)-1] != b {
				t.Fatalf("path %d->%d has wrong endpoints: %v", a, b, path)
			}
			// Consecutive hops must be actual links.
			for i := 0; i+1 < len(path); i++ {
				if !i2.hasLink(path[i], path[i+1]) {
					t.Fatalf("path %d->%d uses nonexistent link %d-%d", a, b, path[i], path[i+1])
				}
			}
			// No repeated nodes.
			seen := map[int]bool{}
			for _, v := range path {
				if seen[v] {
					t.Fatalf("path %d->%d revisits node %d: %v", a, b, v, path)
				}
				seen[v] = true
			}
		}
	}
}

func TestShortestPathIsShortest(t *testing.T) {
	// Triangle with a shortcut: direct A-C (10) vs A-B-C (3+3).
	nodes := []Node{{ID: 0}, {ID: 1}, {ID: 2}}
	tp := New("tri", nodes)
	tp.AddLink(0, 1, 3)
	tp.AddLink(1, 2, 3)
	tp.AddLink(0, 2, 10)
	p := tp.Path(0, 2)
	want := []int{0, 1, 2}
	if len(p) != 3 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] {
		t.Fatalf("path = %v, want %v", p, want)
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	// Two equal-cost 2-hop paths 0->3 via 1 or via 2; must always pick via
	// the lower-ID predecessor.
	nodes := []Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	tp := New("diamond", nodes)
	tp.AddLink(0, 1, 5)
	tp.AddLink(0, 2, 5)
	tp.AddLink(1, 3, 5)
	tp.AddLink(2, 3, 5)
	for i := 0; i < 10; i++ {
		p := tp.Path(0, 3)
		if len(p) != 3 || p[1] != 1 {
			t.Fatalf("run %d: path = %v, want [0 1 3]", i, p)
		}
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// New York to Los Angeles is about 3940 km.
	d := Haversine(40.71, -74.01, 34.05, -118.24)
	if d < 3800 || d > 4100 {
		t.Fatalf("NY-LA distance = %v km, want ~3940", d)
	}
	if Haversine(10, 10, 10, 10) != 0 {
		t.Fatal("identical points must have zero distance")
	}
}

func TestPathSymmetryQuick(t *testing.T) {
	// Shortest-path costs must be symmetric on undirected graphs; the paths
	// themselves may differ under ties but their hop distance matters for
	// Dist_ikj, which only depends on path length here.
	i2 := Internet2()
	dist := func(path []int) float64 {
		d := 0.0
		for i := 0; i+1 < len(path); i++ {
			for _, l := range i2.Links {
				if (l.A == path[i] && l.B == path[i+1]) || (l.B == path[i] && l.A == path[i+1]) {
					d += l.Dist
				}
			}
		}
		return d
	}
	f := func(a, b uint8) bool {
		x, y := int(a)%i2.N(), int(b)%i2.N()
		return math.Abs(dist(i2.Path(x, y))-dist(i2.Path(y, x))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedOnFragment(t *testing.T) {
	nodes := []Node{{ID: 0}, {ID: 1}, {ID: 2}}
	tp := New("frag", nodes)
	tp.AddLink(0, 1, 1)
	if tp.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	tp.AddLink(1, 2, 1)
	if !tp.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestAddLinkPanics(t *testing.T) {
	tp := New("p", []Node{{ID: 0}, {ID: 1}})
	for _, fn := range []func(){
		func() { tp.AddLink(0, 0, 1) },
		func() { tp.AddLink(0, 5, 1) },
		func() { tp.AddLink(0, 1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFiftyNode(t *testing.T) {
	t50 := FiftyNode()
	if t50.N() != 50 {
		t.Fatalf("FiftyNode has %d nodes", t50.N())
	}
	if !t50.Connected() {
		t.Fatal("FiftyNode disconnected")
	}
}

func TestTotalPopulationPositive(t *testing.T) {
	for _, tp := range []*Topology{Internet2(), Geant(), RocketfuelLike(AS1221)} {
		if tp.TotalPopulation() <= 0 {
			t.Fatalf("%s: nonpositive total population", tp.Name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	var buf strings.Builder
	if err := Internet2().WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, `graph "Internet2" {`) {
		t.Fatalf("bad DOT prologue: %q", out[:30])
	}
	if strings.Count(out, " -- ") != 14 {
		t.Fatalf("DOT has %d edges, want 14", strings.Count(out, " -- "))
	}
	if !strings.Contains(out, "New York") {
		t.Fatal("node labels missing")
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("unterminated graph")
	}
}

// Degree reports the number of links incident to node id.
func (t *Topology) Degree(id int) int { return len(t.adj[id]) }

// Path returns the shortest path from a to b (inclusive of endpoints), or
// nil if unreachable.
func (t *Topology) Path(a, b int) []int {
	return t.ShortestPaths(a)[b]
}

// SortedByPopulation returns node IDs ordered by descending population,
// ties broken by ID. Used by evaluations that care about the heaviest
// gravity-model endpoints.
func (t *Topology) SortedByPopulation() []int {
	ids := make([]int, len(t.Nodes))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := t.Nodes[ids[i]], t.Nodes[ids[j]]
		if a.Population != b.Population {
			return a.Population > b.Population
		}
		return a.ID < b.ID
	})
	return ids
}

// TotalPopulation sums node populations (gravity model normalizer).
func (t *Topology) TotalPopulation() float64 {
	var sum float64
	for _, n := range t.Nodes {
		sum += n.Population
	}
	return sum
}
