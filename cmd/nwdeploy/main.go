// Command nwdeploy plans network-wide NIDS or NIPS deployments from a JSON
// scenario specification and prints the resulting assignment, or writes the
// scenario's workload as a packet capture.
//
// Usage:
//
//	nwdeploy -mode nids  [-spec scenario.json] [-redundancy r]
//	nwdeploy -mode nips  [-spec scenario.json] [-variant greedy|lp|basic] [-iters n]
//	nwdeploy -mode manifest [-spec scenario.json] [-node j]
//	nwdeploy -mode whatif [-spec scenario.json] [-factor 2.0]
//	nwdeploy -mode pcap -o trace.pcap [-spec scenario.json]
//	nwdeploy -mode dot [-spec scenario.json]
//
// All modes additionally accept -metrics <file> to dump a JSON snapshot of
// the run's solver counters and timing histograms on exit, and
// -pprof <addr> to serve /debug/pprof, /debug/vars, and /metrics while the
// command runs.
//
// -mode pcap writes the spec's workload as a libpcap capture (tcpdump,
// wireshark): gravity-model sessions expanded to full TCP/UDP exchanges
// with valid checksums. The same spec writes the same bytes.
//
// Without -spec a built-in Internet2 demonstration scenario is used. The
// spec format is documented on the cli.Spec type; a key it does not know is
// an error. `nwdeploy -print-spec` emits the default spec as a starting
// point.
package main

import "nwdeploy/internal/cli"

func main() { cli.Main("nwdeploy") }
