// Command controller runs the operations center as a long-lived daemon:
// it solves the NIDS placement for a topology, serves sampling manifests
// to node agents over TCP, and re-optimizes on a fixed cadence with fresh
// traffic reports — the deployment loop the paper describes ("a
// centralized operations center periodically configures the NIDS
// responsibilities of the different nodes ... we envision needing to
// reconfigure NIDS with roughly the same frequency" as NetFlow reports).
//
//	controller -listen 127.0.0.1:7117 [-topology internet2] [-sessions 20000]
//	           [-interval 5m] [-hashkey 1234] [-once]
//	           [-metrics run.json] [-pprof 127.0.0.1:6060]
//
// Agents (internal/control.Agent) poll the epoch and refetch manifests
// when it changes. With -once the daemon solves a single plan and serves
// it until killed.
package main

import "nwdeploy/internal/cli"

func main() { cli.Main("controller") }
