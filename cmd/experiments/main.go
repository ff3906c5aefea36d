// Command experiments regenerates every table and figure of the paper's
// evaluation as tab-separated series on stdout.
//
// Usage:
//
//	experiments [-quick] [-workers n] [-only fig5,fig6,fig7,fig8,fig10,fig11,opttime,redundancy,ablations,adversaries,chaos,overload,scenarios]
//	            [-metrics run.json] [-trace run.trace.jsonl] [-pprof 127.0.0.1:6060]
//	            [-scenarios-json out.json] [-scenarios-assert]
//
// With -quick the reduced workload sizes are used (seconds per experiment);
// without it the full evaluation sizes run (several minutes on one core —
// the LP solver is pure Go). -workers sizes the worker pool (0 = GOMAXPROCS,
// 1 = serial); the output is byte-identical for every value. Each block is
// prefixed by a "# figure" header naming the paper artifact it reproduces
// and the workload parameters, so the output can be diffed across runs and
// fed straight to a plotter. -metrics dumps the suite's accumulated solver
// and emulation counters as JSON on exit; -trace records the chaos and
// overload runners' flight recorder and writes its JSONL dump on exit
// (forcing the experiment blocks serial, since a shared tracer across
// concurrent blocks would interleave component sequences); -pprof serves
// live profiling, /metrics, and /trace while the suite runs.
package main

import "nwdeploy/internal/cli"

func main() { cli.Main("experiments") }
