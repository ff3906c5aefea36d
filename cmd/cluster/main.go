// Command cluster runs the resilient deployment demo: an in-process
// controller plus one agent per monitoring node, exchanging manifests over
// real loopback TCP while a seeded fault injector crashes nodes, takes the
// controller offline, and drops or black-holes control connections. Each
// epoch prints the control plane's convergence and the achieved analysis
// coverage against the plan's Section 2.5 static prediction, ending with a
// verdict on whether the provisioned redundancy held at runtime.
//
// Usage:
//
//	cluster [-topology internet2] [-sessions 4000] [-epochs 8] [-redundancy 1]
//	        [-seed 1] [-lossprob 0.2] [-blackholeprob 0.05]
//	        [-nodefailprob 0.15] [-outageprob 0.1] [-maxdown 0]
//	        [-stalegrace 2] [-reoptevery 3] [-workers 0] [-probes 2000]
//	        [-metrics run.json] [-trace run.trace.jsonl] [-ringsize 512]
//	        [-slo-worst-cov 0] [-slo-avg-cov 0] [-slo-max-shed -1]
//	        [-slo-max-replan-iters -1] [-slo-max-fetch-fail -1]
//	        [-slo-max-dark -1] [-slo-deadline-miss] [-ledger auditdir]
//	        [-fleet] [-pprof 127.0.0.1:6060]
//	cluster -overload [-burstfactor 4] [-burstprob 0.15] [-governor]
//	        [-replan] [-warmreplan] [-replanthreshold 0.2] [-replanmaxiters 0]
//	        [common flags as above]
//	cluster -scenario diurnal|flashcrowd|synflood|maintenance|adversary
//	        [-dataplane] [-governor] [-replan] [-warmreplan] [common flags]
//
// The whole run is a pure function of its flags: same flags, same output,
// byte for byte, despite the real sockets underneath (see internal/chaos
// for the determinism contract). With -redundancy 2 the path-scoped module
// subset is deployed (ingress/egress-scoped units admit only one copy) and
// -maxdown defaults to r-1, putting the coverage guarantee on trial.
//
// With -trace the run records its flight recorder (internal/trace): every
// control-plane decision lands in per-component rings, and the JSONL dump
// — written at the first guarantee violation, or at run end when the run
// finishes clean — reconstructs the causal chain (burst → overrun → shed →
// replan). The dump is byte-identical across -workers values. The -slo-*
// flags arm the per-epoch SLO watchdog; breaches show in the table's slo
// column and trigger the post-mortem.
//
// With -scenario the run is driven by a named composable scenario from the
// experiments catalog (join several with +, e.g. maintenance+flashcrowd):
// the driver mutates traffic, injects crafted sessions, and schedules
// drains or crashes each epoch, and the run audits achieved wire coverage
// against what the published manifests promised, plus whether any injected
// session evaded analysis. -dataplane additionally runs each agent's
// engine over its share of the (scaled + injected) traffic.
//
// With -overload the fault injector is replaced by a bursty traffic series:
// per-node load governors (-governor) shed hash ranges deterministically when
// an epoch's projected load overruns the plan's budget — lowest drop-value
// classes first, never below the r=1 coverage floor — and an EWMA drift
// detector (-replan) triggers re-solves, warm-started from the previous
// basis with -warmreplan, bounded by -replanmaxiters simplex iterations
// (a miss falls back to the governors' shed state).
//
// With -fleet the run additionally collects the fleet telemetry plane
// (internal/telemetry): each node's compact stats report rides its
// existing control-plane exchanges, the controller folds reports into a
// per-epoch health rollup (healthy / stale / shedding / dark), and the
// rollup prints as a second table after the run. The plane is write-only:
// the report tables above are byte-identical with or without it. While the
// run executes, -pprof serves the debug HTTP surface (obshttp.NewMux),
// including /fleet and /fleet/history for live scraping with cmd/fleetstat.
//
// With -ledger DIR the run additionally writes its tamper-evident audit
// ledger (internal/ledger): chain.jsonl (the hash-chained record log),
// objects/ (content-addressed manifest and trace blobs), and HEAD (the
// pinned chain head digest). Verify offline with:
//
//	auditcheck -dir DIR -seed SEED
package main

import "nwdeploy/internal/cli"

func main() { cli.Main("cluster") }
