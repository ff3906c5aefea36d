// Package topology models the network substrate the paper's optimizations
// run over: undirected weighted graphs of PoP-level routers, shortest-path
// routing on link distances (Section 2.4 and 3.4 of the paper use
// shortest-path routing inferred per Mahajan et al.), and the specific
// evaluation topologies — Internet2/Abilene and Geant embedded with real
// city coordinates and metro populations, plus seeded ISP-like stand-ins
// for the Rocketfuel tier-1 maps (AS 1221, 1239, 3257), which are not
// redistributable.
package topology

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"math"
)

// Node is a PoP-level router location.
type Node struct {
	ID         int
	Name       string  // short code, e.g. "NYCM"
	City       string  // human-readable location
	Population float64 // metro population used by the gravity traffic model
	Lat, Lon   float64 // degrees; used to derive link distances
}

// Link is an undirected edge between two nodes. Dist is the routing weight
// (kilometers for the embedded topologies).
type Link struct {
	A, B int
	Dist float64
}

// Topology is an undirected weighted graph with deterministic shortest-path
// routing. Construct with New and AddLink, or use one of the embedded
// builders (Internet2, Geant, RocketfuelLike).
type Topology struct {
	Name  string
	Nodes []Node
	Links []Link

	adj map[int][]neighbor
}

type neighbor struct {
	to   int
	dist float64
}

// New returns a topology with n placeholder nodes. Callers typically set
// node metadata directly afterwards.
func New(name string, nodes []Node) *Topology {
	t := &Topology{Name: name, Nodes: nodes, adj: make(map[int][]neighbor)}
	for i := range t.Nodes {
		if t.Nodes[i].ID != i {
			panic(fmt.Sprintf("topology: node %d has ID %d; IDs must be dense and ordered", i, t.Nodes[i].ID))
		}
	}
	return t
}

// N reports the number of nodes.
func (t *Topology) N() int { return len(t.Nodes) }

// AddLink adds an undirected link with the given distance. Adding a link
// with a nonpositive distance or an unknown endpoint panics: topologies are
// static program data here, so these are construction bugs.
func (t *Topology) AddLink(a, b int, dist float64) {
	if a < 0 || b < 0 || a >= len(t.Nodes) || b >= len(t.Nodes) || a == b {
		panic(fmt.Sprintf("topology: bad link %d-%d", a, b))
	}
	if dist <= 0 || math.IsNaN(dist) || math.IsInf(dist, 0) {
		panic(fmt.Sprintf("topology: bad link distance %v", dist))
	}
	t.Links = append(t.Links, Link{A: a, B: b, Dist: dist})
	t.adj[a] = append(t.adj[a], neighbor{b, dist})
	t.adj[b] = append(t.adj[b], neighbor{a, dist})
}

// AddLinkAuto adds a link with distance derived from the endpoint
// coordinates (haversine great-circle distance in kilometers).
func (t *Topology) AddLinkAuto(a, b int) {
	d := Haversine(t.Nodes[a].Lat, t.Nodes[a].Lon, t.Nodes[b].Lat, t.Nodes[b].Lon)
	if d < 1 {
		d = 1
	}
	t.AddLink(a, b, d)
}

// Connected reports whether every node can reach every other node.
func (t *Topology) Connected() bool {
	if len(t.Nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range t.adj[v] {
			if !seen[nb.to] {
				seen[nb.to] = true
				count++
				stack = append(stack, nb.to)
			}
		}
	}
	return count == len(t.Nodes)
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPaths runs Dijkstra from src and returns, for every destination,
// the node sequence src..dst along the unique tie-broken shortest path.
// Ties are broken deterministically toward lower predecessor IDs so routing
// is stable across runs.
func (t *Topology) ShortestPaths(src int) [][]int {
	n := len(t.Nodes)
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		// Deterministic neighbor order.
		nbs := t.adj[it.node]
		for _, nb := range nbs {
			nd := it.dist + nb.dist
			const tieEps = 1e-9
			if nd < dist[nb.to]-tieEps ||
				(math.Abs(nd-dist[nb.to]) <= tieEps && (prev[nb.to] == -1 || it.node < prev[nb.to])) {
				dist[nb.to] = math.Min(nd, dist[nb.to])
				prev[nb.to] = it.node
				heap.Push(q, pqItem{nb.to, nd})
			}
		}
	}
	paths := make([][]int, n)
	for dst := 0; dst < n; dst++ {
		if dst == src {
			paths[dst] = []int{src}
			continue
		}
		if prev[dst] < 0 {
			continue // unreachable
		}
		var rev []int
		for v := dst; v != -1; v = prev[v] {
			rev = append(rev, v)
			if v == src {
				break
			}
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		paths[dst] = rev
	}
	return paths
}

// PathMatrix computes shortest paths between all ordered pairs. Entry
// [a][b] is nil when b is unreachable from a; [a][a] is the singleton {a}.
func (t *Topology) PathMatrix() [][][]int {
	out := make([][][]int, len(t.Nodes))
	for a := range t.Nodes {
		out[a] = t.ShortestPaths(a)
	}
	return out
}

// NodeByName returns the node with the given short code.
func (t *Topology) NodeByName(name string) (Node, bool) {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// Haversine returns the great-circle distance in kilometers between two
// coordinates given in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	rad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := rad(lat2 - lat1)
	dLon := rad(lon2 - lon1)
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(lat1))*math.Cos(rad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// WriteDOT renders the topology in Graphviz DOT form (node labels carry
// city and population; edge labels the link distance), for documentation
// and quick visual inspection of generated ISP stand-ins.
func (t *Topology) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %q {\n  layout=neato;\n  node [shape=ellipse, fontsize=10];\n", t.Name)
	for _, n := range t.Nodes {
		label := n.City
		if label == "" {
			label = n.Name
		}
		fmt.Fprintf(bw, "  n%d [label=\"%s\\n%.1fM\", pos=\"%.2f,%.2f!\"];\n",
			n.ID, label, n.Population/1e6, n.Lon/3, n.Lat/3)
	}
	for _, l := range t.Links {
		fmt.Fprintf(bw, "  n%d -- n%d [label=\"%.0f\", fontsize=8];\n", l.A, l.B, l.Dist)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
