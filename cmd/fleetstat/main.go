// Command fleetstat renders and checks the fleet telemetry plane.
//
// Usage:
//
//	fleetstat [-addr 127.0.0.1:6060] [-history]
//	fleetstat -selftest
//
// The default mode scrapes a live debug endpoint (any command serving
// obshttp with a fleet attached: controller -pprof, nwdeploy -pprof, ...)
// and renders /fleet — the controller's latest per-node health rollup —
// as a table; -history additionally renders the per-epoch rollup series
// from /fleet/history.
//
// -selftest runs the full acceptance loop in-process: a scenario cluster
// with a mid-run crash and a planned drain, the fleet plane attached, and
// a real HTTP server on a loopback port. It then scrapes /fleet,
// /fleet/history, and /metrics.prom over the wire and checks the paper's
// operational story: the crashed node classifies dark and the draining
// node classifies stale within one epoch, and the Prometheus exposition
// validates structurally.
//
// The plane's cost is cmd/perf's telemetry.overhead_frac; its write-only
// contract is pinned by the cluster package's fleet non-interference tests.
package main

import "nwdeploy/internal/cli"

func main() { cli.Main("fleetstat") }
