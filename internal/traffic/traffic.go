// Package traffic synthesizes the workloads the paper evaluates on: a
// gravity-model traffic matrix derived from city populations (the paper's
// [30, 33]), a port-popularity traffic profile, and template-based session
// generation mirroring the paper's custom trace generator ("template
// sessions using real traffic captured for common protocols like HTTP, IRC,
// and Telnet, and synthetically generated traffic sessions for other
// protocols", Section 2.4). It also produces the per-path flow/packet
// volumes and rule match rates the NIPS formulation consumes (Section 3.4).
package traffic

import (
	"fmt"
	"math/rand"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
)

// Protocol describes a template for one application protocol's sessions.
type Protocol struct {
	Name      string
	Port      uint16
	Transport uint8 // 6 = TCP, 17 = UDP
	// MeanPkts is the mean number of packets per session (both directions).
	MeanPkts float64
	// MeanPayload is the mean payload bytes per packet.
	MeanPayload float64
}

// Template protocols. Means follow common trace statistics: HTTP sessions
// are short but payload-heavy, IRC sessions are long-lived and chatty,
// Telnet is interactive with tiny packets, TFTP is a short UDP exchange.
var (
	HTTP   = Protocol{Name: "http", Port: 80, Transport: 6, MeanPkts: 18, MeanPayload: 700}
	IRC    = Protocol{Name: "irc", Port: 6667, Transport: 6, MeanPkts: 60, MeanPayload: 120}
	Telnet = Protocol{Name: "telnet", Port: 23, Transport: 6, MeanPkts: 80, MeanPayload: 40}
	Rlogin = Protocol{Name: "rlogin", Port: 513, Transport: 6, MeanPkts: 70, MeanPayload: 48}
	TFTP   = Protocol{Name: "tftp", Port: 69, Transport: 17, MeanPkts: 10, MeanPayload: 512}
	SMTP   = Protocol{Name: "smtp", Port: 25, Transport: 6, MeanPkts: 14, MeanPayload: 400}
	DNS    = Protocol{Name: "dns", Port: 53, Transport: 17, MeanPkts: 2, MeanPayload: 80}
	HTTPS  = Protocol{Name: "https", Port: 443, Transport: 6, MeanPkts: 20, MeanPayload: 650}
	FTP    = Protocol{Name: "ftp", Port: 21, Transport: 6, MeanPkts: 24, MeanPayload: 300}
	SSH    = Protocol{Name: "ssh", Port: 22, Transport: 6, MeanPkts: 40, MeanPayload: 200}
	// MSRPC port 135: the vector the Blaster worm detector watches.
	MSRPC = Protocol{Name: "msrpc", Port: 135, Transport: 6, MeanPkts: 6, MeanPayload: 150}
	Other = Protocol{Name: "other", Port: 8000, Transport: 6, MeanPkts: 12, MeanPayload: 250}
)

// MixEntry pairs a protocol with its share of sessions.
type MixEntry struct {
	Proto Protocol
	Share float64
}

// Profile is a normalized protocol mix ("relative popularity of different
// application ports").
type Profile []MixEntry

// MixedProfile returns the default mixed profile that "stresses different
// modules" as in the paper's microbenchmarks: web-dominated with meaningful
// shares for every protocol a module watches.
func MixedProfile() Profile {
	p := Profile{
		{HTTP, 0.34}, {HTTPS, 0.10}, {DNS, 0.10}, {SMTP, 0.07},
		{IRC, 0.08}, {Telnet, 0.06}, {Rlogin, 0.03}, {TFTP, 0.06},
		{FTP, 0.04}, {SSH, 0.04}, {MSRPC, 0.04}, {Other, 0.04},
	}
	return p.normalize()
}

func (p Profile) normalize() Profile {
	var sum float64
	for _, e := range p {
		sum += e.Share
	}
	if sum == 0 {
		panic("traffic: profile has zero total share")
	}
	out := make(Profile, len(p))
	for i, e := range p {
		out[i] = MixEntry{e.Proto, e.Share / sum}
	}
	return out
}

// Matrix is an ordered-pair traffic matrix: Matrix[a][b] is the fraction of
// total traffic whose ingress is a and egress is b. The diagonal is zero
// and entries sum to 1.
type Matrix [][]float64

// Gravity builds the gravity-model matrix the paper uses: the share for
// pair (a, b) is proportional to the product of the endpoint populations.
func Gravity(t *topology.Topology) Matrix {
	n := t.N()
	m := make(Matrix, n)
	var norm float64
	for a := 0; a < n; a++ {
		m[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			w := t.Nodes[a].Population * t.Nodes[b].Population
			m[a][b] = w
			norm += w
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			m[a][b] /= norm
		}
	}
	return m
}

// TopPairs returns up to k ordered pairs by descending share. Large-LP
// evaluations cap the path set to the heaviest gravity pairs (see
// DESIGN.md's scale note).
func (m Matrix) TopPairs(k int) [][2]int {
	type pv struct {
		a, b int
		v    float64
	}
	var all []pv
	for a := range m {
		for b := range m[a] {
			if m[a][b] > 0 {
				all = append(all, pv{a, b, m[a][b]})
			}
		}
	}
	// Deterministic selection: sort by value desc, then indices.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			x, y := all[j-1], all[j]
			if y.v > x.v || (y.v == x.v && (y.a < x.a || (y.a == x.a && y.b < x.b))) {
				all[j-1], all[j] = y, x
			} else {
				break
			}
		}
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([][2]int, k)
	for i := 0; i < k; i++ {
		out[i] = [2]int{all[i].a, all[i].b}
	}
	return out
}

// Session is one synthetic end-to-end session (the unit the paper's traces
// count: "total traffic volume (#sessions)").
//
// Field order is part of the data-plane contract: the decision path reads
// only Tuple, Src, and Dst, so those sit first as an aligned 32-byte
// prefix. With the struct's 96-byte size, every session's decision fields
// then land inside a single cache line of the trace slice; with ID first
// half of them straddled two.
type Session struct {
	Tuple    hashing.FiveTuple
	Src, Dst int // ingress and egress node IDs
	ID       int
	Proto    Protocol
	Packets  int // both directions
	Bytes    int
}

// GenConfig parameterizes session generation.
type GenConfig struct {
	Sessions int
	Seed     int64
	Profile  Profile
	// HostsPerNode bounds the synthetic address pool behind each node so
	// per-source aggregation (scan detection) sees repeated sources.
	// Zero selects 256.
	HostsPerNode int
}

// Generate synthesizes sessions: endpoints sampled from the traffic matrix,
// protocol from the profile, packet/byte counts from the protocol template
// (geometric around the mean, minimum 2 packets).
func Generate(t *topology.Topology, m Matrix, cfg GenConfig) []Session {
	if cfg.Sessions <= 0 {
		return nil
	}
	prof := cfg.Profile
	if prof == nil {
		prof = MixedProfile()
	} else {
		prof = prof.normalize()
	}
	hosts := cfg.HostsPerNode
	if hosts == 0 {
		hosts = 256
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Cumulative distributions for pair and protocol sampling.
	type pairCDF struct {
		a, b int
		cum  float64
	}
	var pairs []pairCDF
	cum := 0.0
	for a := range m {
		for b := range m[a] {
			if m[a][b] <= 0 {
				continue
			}
			cum += m[a][b]
			pairs = append(pairs, pairCDF{a, b, cum})
		}
	}
	if len(pairs) == 0 {
		panic("traffic: empty traffic matrix")
	}
	samplePair := func() (int, int) {
		x := rng.Float64() * cum
		lo, hi := 0, len(pairs)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if pairs[mid].cum < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return pairs[lo].a, pairs[lo].b
	}
	sampleProto := func() Protocol {
		x := rng.Float64()
		acc := 0.0
		for _, e := range prof {
			acc += e.Share
			if x < acc {
				return e.Proto
			}
		}
		return prof[len(prof)-1].Proto
	}

	out := make([]Session, cfg.Sessions)
	for i := range out {
		a, b := samplePair()
		proto := sampleProto()
		srcIP := nodeHostIP(a, rng.Intn(hosts))
		dstIP := nodeHostIP(b, rng.Intn(hosts))
		pkts := 2 + geometric(rng, proto.MeanPkts-2)
		bytes := 0
		for p := 0; p < pkts; p++ {
			bytes += 20 + int(proto.MeanPayload*(0.5+rng.Float64()))
		}
		out[i] = Session{
			ID:  i,
			Src: a, Dst: b,
			Tuple: hashing.FiveTuple{
				SrcIP:   srcIP,
				DstIP:   dstIP,
				SrcPort: uint16(1024 + rng.Intn(64000)),
				DstPort: proto.Port,
				Proto:   proto.Transport,
			},
			Proto:   proto,
			Packets: pkts,
			Bytes:   bytes,
		}
	}
	return out
}

// nodeHostIP returns the synthetic address of host h behind node n
// (10.n.h_hi.h_lo).
func nodeHostIP(n, h int) uint32 {
	return 10<<24 | uint32(n&0xff)<<16 | uint32((h>>8)&0xff)<<8 | uint32(h&0xff)
}

// NodeOfIP inverts nodeHostIP: which node's prefix an address belongs to.
func NodeOfIP(ip uint32) int { return int(ip >> 16 & 0xff) }

// geometric draws a geometric-ish count with the given mean (>= 0).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Exponential with the requested mean, rounded down.
	return int(rng.ExpFloat64() * mean)
}

// PathVolumes carries the per-ordered-pair volumes the NIPS formulation
// needs. The paper's baseline is 8M flows and 40M packets per 5-minute
// interval for Internet2, scaled linearly with network size for the other
// topologies (Section 3.4).
type PathVolumes struct {
	Pairs []([2]int) // ordered (ingress, egress) pairs, parallel to Items/Pkts
	Items []float64  // flows per interval on each path
	Pkts  []float64  // packets per interval on each path
}

// Internet2BaselineFlows and Internet2BaselinePkts are the paper's stated
// per-interval baselines for the 11-node Internet2 network.
const (
	Internet2BaselineFlows = 8e6
	Internet2BaselinePkts  = 40e6
	internet2Nodes         = 11
)

// Volumes computes gravity-weighted per-path volumes, scaling the Internet2
// baseline linearly with node count. If maxPaths > 0 only the heaviest
// maxPaths gravity pairs are kept; each kept path retains its share of the
// full-network volume (the dropped tail's volume is simply not modeled), so
// per-path volumes stay physically realistic under capping.
func Volumes(t *topology.Topology, m Matrix, maxPaths int) PathVolumes {
	scale := float64(t.N()) / internet2Nodes
	totalFlows := Internet2BaselineFlows * scale
	totalPkts := Internet2BaselinePkts * scale

	var pairs [][2]int
	if maxPaths > 0 {
		pairs = m.TopPairs(maxPaths)
	} else {
		for a := range m {
			for b := range m[a] {
				if m[a][b] > 0 {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
	}
	pv := PathVolumes{Pairs: pairs}
	for _, p := range pairs {
		share := m[p[0]][p[1]]
		pv.Items = append(pv.Items, share*totalFlows)
		pv.Pkts = append(pv.Pkts, share*totalPkts)
	}
	return pv
}

// MatchRates draws the fraction M_ik of traffic on each path matching each
// rule, i.i.d. uniform on [lo, hi) — the paper's evaluation distribution is
// U[0, 0.01].
func MatchRates(nRules, nPaths int, lo, hi float64, seed int64) [][]float64 {
	if hi < lo {
		panic(fmt.Sprintf("traffic: bad match-rate range [%v, %v)", lo, hi))
	}
	rng := rand.New(rand.NewSource(seed))
	m := make([][]float64, nRules)
	for i := range m {
		m[i] = make([]float64, nPaths)
		for k := range m[i] {
			m[i][k] = lo + rng.Float64()*(hi-lo)
		}
	}
	return m
}

// MatchDist selects the shape of the match-rate distribution. The paper
// presents uniform results and notes the others "hold for other M_ik
// distributions as well (not shown for brevity)"; these shapes let that
// claim be checked.
type MatchDist int

const (
	// DistUniform is i.i.d. U[0, high).
	DistUniform MatchDist = iota
	// DistExponential is exponential with mean high/2, truncated at high —
	// most rules match little traffic, a few match a lot.
	DistExponential
	// DistBimodal mixes a near-zero mode (90%) with a near-high mode
	// (10%) — a few hot rule/path cells dominate.
	DistBimodal
)

// String names the distribution.
func (d MatchDist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistExponential:
		return "exponential"
	case DistBimodal:
		return "bimodal"
	}
	return fmt.Sprintf("MatchDist(%d)", int(d))
}

// MatchRatesDist draws M_ik from the selected distribution with upper
// bound high.
func MatchRatesDist(dist MatchDist, nRules, nPaths int, high float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]float64, nRules)
	for i := range m {
		m[i] = make([]float64, nPaths)
		for k := range m[i] {
			switch dist {
			case DistExponential:
				v := rng.ExpFloat64() * high / 2
				if v >= high {
					v = high * 0.999
				}
				m[i][k] = v
			case DistBimodal:
				if rng.Float64() < 0.9 {
					m[i][k] = rng.Float64() * high / 20
				} else {
					m[i][k] = high * (0.7 + 0.3*rng.Float64())
				}
			default:
				m[i][k] = rng.Float64() * high
			}
		}
	}
	return m
}
