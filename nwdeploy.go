// Package nwdeploy is the public API of a network-wide NIDS/NIPS
// deployment planner, reproducing "Network-Wide Deployment of Intrusion
// Detection and Prevention Systems" (Sekar, Krishnaswamy, Gupta, Reiter —
// ACM CoNEXT 2010).
//
// Instead of scaling intrusion detection at a single chokepoint, the system
// exploits the fact that every packet is observed by every node on its
// forwarding path:
//
//   - For NIDS (detection), PlanNIDS solves a linear program that splits
//     each analysis class's traffic across the nodes able to observe it, so
//     that coverage stays complete while the maximum per-node CPU/memory
//     load is minimized. The fractional solution becomes per-node hash-range
//     sampling manifests; a node analyzes a packet for a class exactly when
//     the packet's class-specific hash falls in the node's range.
//
//   - For NIPS (prevention), PlanNIPS places filtering rules into
//     TCAM-constrained nodes to maximally reduce the network footprint of
//     unwanted traffic. Integral rule placement is NP-hard, so the planner
//     solves the LP relaxation and applies randomized rounding with greedy
//     and LP-resolve improvements, achieving >= 92% of the LP upper bound in
//     the paper's regime.
//
//   - For adaptive adversaries, NewAdaptiveNIPS wraps the
//     follow-the-perturbed-leader strategy of Kalai and Vempala so the
//     deployment retains low regret against traffic mixes revealed only
//     after each epoch's decision.
//
// The heavy lifting lives in internal packages (internal/lp is a
// from-scratch bounded-variable simplex solver; internal/bro a Bro-like
// NIDS pipeline simulator; internal/topology and internal/traffic the
// evaluation substrates); this package re-exports the stable surface.
//
// # Observability
//
// The planners accept an optional *Metrics registry (NewMetrics) in their
// options structs. The registry is strictly write-only instrumentation:
// a nil registry is the fully functional no-op default — every handle it
// returns is nil-safe, no clock is read, and planner outputs are
// byte-identical with or without one. Pass a registry only when you want
// solver counters (simplex pivots, rounding trials, TCAM repairs) and
// wall-time histograms; snapshot it with Metrics.WriteFile or publish it
// through expvar with Metrics.Publish.
package nwdeploy

import (
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/online"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// Metrics is an optional, allocation-light metrics registry (counters,
// gauges, log-scale histograms, span timers). The zero value for a
// *Metrics — nil — is the no-op registry: it accepts every operation and
// records nothing, so instrumented code needs no guards. See the package
// comment's Observability section for the non-interference contract.
type Metrics = obs.Registry

// NewMetrics returns an empty live registry to pass in an options struct.
func NewMetrics() *Metrics { return obs.New() }

// Re-exported model types. See the internal packages for full
// documentation of each.
type (
	// Topology is an undirected weighted network with shortest-path routing.
	Topology = topology.Topology
	// Node is one PoP-level router location.
	Node = topology.Node

	// Session is one synthetic end-to-end traffic session.
	Session = traffic.Session
	// TrafficMatrix is an ordered-pair traffic share matrix.
	TrafficMatrix = traffic.Matrix

	// Class describes one NIDS analysis type and its resource footprint.
	Class = core.Class
	// NodeResources is a node's CPU and memory capacity.
	NodeResources = core.NodeResources
	// NIDSInstance is a fully specified NIDS placement problem.
	NIDSInstance = core.Instance
	// NIDSPlan is a solved network-wide NIDS deployment with manifests.
	NIDSPlan = core.Plan

	// Rule is one NIPS filtering rule with TCAM/CPU/memory requirements.
	Rule = nips.Rule
	// NIPSInstance is a fully specified NIPS deployment problem.
	NIPSInstance = nips.Instance
	// NIPSDeployment is an integral rule placement with sampling fractions.
	NIPSDeployment = nips.Deployment

	// Hasher maps flow keys to the unit hash space, optionally keyed.
	Hasher = hashing.Hasher
	// FiveTuple identifies a unidirectional flow.
	FiveTuple = hashing.FiveTuple
)

// Scope and Aggregation mirror the NIDS class semantics.
type (
	// Scope determines how a class's traffic partitions into units.
	Scope = core.Scope
	// Aggregation is a class's unit of analysis state.
	Aggregation = core.Aggregation
)

// Class scopes.
const (
	// PerPath units are end-to-end routing paths.
	PerPath = core.PerPath
	// PerIngress units pin analysis to the traffic source's ingress.
	PerIngress = core.PerIngress
	// PerEgress units pin analysis to the traffic destination's egress.
	PerEgress = core.PerEgress
)

// Aggregation kinds.
const (
	// BySession aggregates per bidirectional connection.
	BySession = core.BySession
	// ByFlow aggregates per unidirectional 5-tuple.
	ByFlow = core.ByFlow
	// BySource aggregates per source address.
	BySource = core.BySource
	// ByDestination aggregates per destination address.
	ByDestination = core.ByDestination
)

// Topology constructors.
var (
	// Internet2 is the 11-node Abilene/Internet2 backbone.
	Internet2 = topology.Internet2
	// Geant is a 22-node European research backbone.
	Geant = topology.Geant
)

// GravityMatrix builds a population-product traffic matrix for a topology.
func GravityMatrix(t *Topology) TrafficMatrix { return traffic.Gravity(t) }

// GenerateSessions synthesizes a session workload from a topology and
// traffic matrix with the default mixed protocol profile. Generation is
// deterministic: the same topology, matrix, count, and seed always yield
// the same sessions, independent of GOMAXPROCS or any Workers setting
// elsewhere in the API.
func GenerateSessions(t *Topology, m TrafficMatrix, n int, seed int64) []Session {
	return traffic.Generate(t, m, traffic.GenConfig{Sessions: n, Seed: seed})
}

// UniformCaps gives every node the same CPU and memory capacity. It is a
// pure constructor — the returned slice depends only on its arguments.
func UniformCaps(n int, cpu, mem float64) []NodeResources {
	return core.UniformCaps(n, cpu, mem)
}

// BuildNIDSInstance derives LP inputs (coordination units and their
// volumes) from a topology, class list, and session workload.
func BuildNIDSInstance(t *Topology, classes []Class, sessions []Session, caps []NodeResources) (*NIDSInstance, error) {
	return core.BuildInstance(t, classes, sessions, caps)
}

// NIDSOptions parameterizes PlanNIDS. The zero value solves the paper's
// base formulation: coverage level 1, no aggregation budget, no metrics.
type NIDSOptions struct {
	// Redundancy is the coverage level r: each analysis is replicated at
	// r distinct nodes for fault tolerance (Section 2.5). Values below 1
	// select the base formulation's r = 1.
	Redundancy int
	// Aggregation, when non-nil, adds the Section 5 communication-budget
	// constraint for shipping per-item digests to a collector node.
	Aggregation *AggregationConfig
	// Workers is reserved for future parallel solves; the placement LP is
	// a single simplex run today, so it is currently unused.
	Workers int
	// Metrics, when non-nil, receives solver counters and wall-time
	// spans. The returned plan is byte-identical with or without it.
	Metrics *Metrics
}

// PlanNIDS solves the placement LP and returns the plan with per-node
// sampling manifests. The plan's Stats field carries deterministic solver
// counters (simplex pivots per phase, presolve eliminations).
func PlanNIDS(inst *NIDSInstance, opts NIDSOptions) (*NIDSPlan, error) {
	return core.SolveOpts(inst, core.SolveOptions{
		Redundancy:  opts.Redundancy,
		Aggregation: opts.Aggregation,
		Workers:     opts.Workers,
		Metrics:     opts.Metrics,
	})
}

// NIPSVariant selects the approximation algorithm for PlanNIPS.
type NIPSVariant = nips.Variant

// NIPS algorithm variants, in increasing solution quality.
const (
	// NIPSRounding is the basic Figure 9 randomized rounding.
	NIPSRounding = nips.VariantBasic
	// NIPSRoundingLP re-solves the sampling LP after rounding.
	NIPSRoundingLP = nips.VariantRoundLP
	// NIPSRoundingGreedyLP adds greedy rule packing before the re-solve.
	NIPSRoundingGreedyLP = nips.VariantRoundGreedyLP
)

// UnitRules builds n NIPS rules with unit resource requirements.
func UnitRules(n int) []Rule { return nips.UnitRules(n) }

// NIPSConfig parameterizes BuildNIPSInstance.
type NIPSConfig = nips.Config

// BuildNIPSInstance assembles a NIPS problem from a topology using
// gravity-model volumes and hop-count distances.
func BuildNIPSInstance(t *Topology, rules []Rule, cfg NIPSConfig) *NIPSInstance {
	return nips.NewInstance(t, rules, cfg)
}

// NIPSStats carries the deterministic counters of one PlanNIPS run:
// rounding iterations and trials, TCAM repairs, LP re-solves, and the
// best-objective trajectory across iterations.
type NIPSStats = nips.SolveStats

// NIPSOptions parameterizes PlanNIPS. The zero value runs one iteration
// of the basic Figure 9 rounding with seed 0 on a GOMAXPROCS pool.
type NIPSOptions struct {
	// Variant selects the approximation algorithm (NIPSRounding,
	// NIPSRoundingLP, or NIPSRoundingGreedyLP).
	Variant NIPSVariant
	// Iters is the number of independent rounding iterations; the best
	// deployment wins. Values below 1 select 1.
	Iters int
	// Seed drives the rounding randomness. The same seed yields the same
	// deployment for every Workers setting.
	Seed int64
	// Workers sizes the worker pool the rounding sweep fans out on: 0
	// selects GOMAXPROCS, 1 the serial path.
	Workers int
	// Metrics, when non-nil, receives solver counters and wall-time
	// spans. The result is byte-identical with or without it.
	Metrics *Metrics
}

// NIPSResult is a solved NIPS deployment with its quality measures.
type NIPSResult struct {
	// Deployment is the best integral rule placement found.
	Deployment *NIPSDeployment
	// LPBound is the LP relaxation's objective — the upper bound the
	// paper measures approximation quality against.
	LPBound float64
	// Gap is the relative shortfall (LPBound - Objective) / LPBound, in
	// [0, 1]; the paper's regime achieves Gap <= 0.08. Zero when the
	// bound is zero.
	Gap float64
	// Stats holds the run's deterministic solver counters.
	Stats NIPSStats
}

// PlanNIPS runs the selected approximation variant and returns the best
// deployment together with the LP upper bound it is measured against. The
// rounding sweep runs on the configured worker pool; the result is
// identical to a serial sweep for the same seed.
func PlanNIPS(inst *NIPSInstance, opts NIPSOptions) (*NIPSResult, error) {
	res, err := nips.SolveDetailed(inst, nips.SolveOptions{
		Variant: opts.Variant,
		Iters:   opts.Iters,
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	out := &NIPSResult{
		Deployment: res.Deployment,
		LPBound:    res.Relaxation.Objective,
		Stats:      res.Stats,
	}
	if out.LPBound > 0 {
		out.Gap = (out.LPBound - res.Deployment.Objective) / out.LPBound
	}
	return out, nil
}

// AdaptiveNIPS is the online (follow-the-perturbed-leader) NIPS deployer.
type AdaptiveNIPS = online.Adapter

// AdaptiveOptions parameterizes NewAdaptiveNIPS. Horizon is the intended
// number of epochs and MaxDrop a conservative bound on the droppable
// traffic fraction; together they set the perturbation scale per
// Theorem 3.1 (zero values select a one-epoch horizon and 1%).
type AdaptiveOptions struct {
	Horizon int
	MaxDrop float64
	// Seed drives the per-epoch perturbation draws.
	Seed int64
	// Workers is reserved; the exact per-epoch optimizer is a single LP
	// solve today.
	Workers int
	// Metrics, when non-nil, receives per-decision solver counters and
	// timing. The decision sequence is identical with or without it.
	Metrics *Metrics
}

// NewAdaptiveNIPS builds an FPL adapter for an instance (TCAM constraints
// are ignored, per the paper's Section 3.5 setting).
func NewAdaptiveNIPS(inst *NIPSInstance, opts AdaptiveOptions) *AdaptiveNIPS {
	return online.NewAdapterOpts(inst, online.AdapterOptions{
		Horizon: opts.Horizon,
		MaxDrop: opts.MaxDrop,
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Metrics: opts.Metrics,
	})
}

// Operational extensions (the paper's Section 5 discussion points).
type (
	// Upgrade is one what-if provisioning option with its load reduction.
	Upgrade = core.Upgrade
	// Transition is a routing-change handover: retained old assignments
	// plus the state transfers needed for correctness.
	Transition = core.Transition
	// AggregationConfig budgets network-wide aggregated analysis.
	AggregationConfig = core.AggregationConfig
)

// WhatIfUpgrades evaluates single-node capacity upgrades by the given
// factor, sorted by decreasing reduction of the min-max load: "where
// should an administrator add more resources".
func WhatIfUpgrades(inst *NIDSInstance, r int, factor float64) ([]Upgrade, error) {
	return core.WhatIfUpgrades(inst, r, factor)
}

// PlanTransition computes the drain-window retentions and live-state
// transfers for moving between two plans after a routing or traffic
// change.
func PlanTransition(oldPlan, newPlan *NIDSPlan) (*Transition, error) {
	return core.PlanTransition(oldPlan, newPlan)
}

// PlanNIDSWithAggregation solves the placement LP with a communication
// budget for shipping per-item digests to a collector node (Section 5's
// aggregated-analysis extension). It is equivalent to PlanNIDS with
// NIDSOptions{Redundancy: r, Aggregation: &agg}.
func PlanNIDSWithAggregation(inst *NIDSInstance, r int, agg AggregationConfig) (*NIDSPlan, error) {
	return PlanNIDS(inst, NIDSOptions{Redundancy: r, Aggregation: &agg})
}

// GreedyNIDSPlan is the non-optimizing baseline: each coordination unit
// assigned wholly to the least-loaded eligible node. Useful for ablation
// against PlanNIDS.
func GreedyNIDSPlan(inst *NIDSInstance) *NIDSPlan { return core.GreedyPlan(inst) }

// CoverageUnderFailure reports the worst-case and average fraction of the
// hash space still analyzed when the given nodes fail — the robustness the
// redundancy level r buys (a plan solved at redundancy r survives any r-1
// failures with full coverage).
func CoverageUnderFailure(p *NIDSPlan, failed []int) (worst, avg float64) {
	return core.CoverageUnderFailure(p, failed)
}

// SolveNIPSExact computes the true MILP optimum by branch-and-bound; it
// refuses instances with more than a couple dozen binary variables (the
// problem is NP-hard) and exists to validate the approximations.
func SolveNIPSExact(inst *NIPSInstance) (*NIPSDeployment, error) {
	return nips.SolveExact(inst)
}
