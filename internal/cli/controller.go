package cli

import (
	"context"
	"flag"
	"io"
	"log"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/traffic"
)

// Controller runs the operations centre: it solves the NIDS placement,
// serves manifests to agents and re-optimizes on a cadence until ctx is
// done. See cmd/controller for the flags.
func Controller(ctx context.Context, args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("controller", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7117", "address to serve manifests on")
	topoName := fs.String("topology", "internet2", topologyNames)
	sessions := fs.Int("sessions", 20000, "sessions per traffic report")
	interval := fs.Duration("interval", 5*time.Minute, "re-optimization cadence")
	hashKey := fs.Uint("hashkey", 0x5eed, "private sampling hash key")
	once := fs.Bool("once", false, "solve once and serve; no re-optimization loop")
	cpuCap := fs.Float64("cpucap", 1e7, "per-node CPU capacity")
	memCap := fs.Float64("memcap", 1e9, "per-node memory capacity")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file on shutdown")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof, /debug/vars, and /metrics on this address")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	logger := log.New(stderr, "controller: ", log.LstdFlags)
	fail := failer("controller", stderr)
	topo, err := topologyByName(*topoName)
	if err != nil {
		return fail(err)
	}
	metrics := obs.New()
	_, stopDebug, err := serveDebug(*pprofAddr, obshttp.Options{Registry: metrics})
	if err != nil {
		return fail(err)
	}
	defer stopDebug()

	classes := bro.Classes(bro.StandardModules()[1:])
	caps := core.UniformCaps(topo.N(), *cpuCap, *memCap)
	tm := traffic.Gravity(topo)
	solve := func(seed int64) (*core.Plan, error) {
		// Each cycle consumes a fresh traffic report; the seed stands in
		// for the NetFlow feed's sampling noise.
		report := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: *sessions, Seed: seed})
		inst, err := core.BuildInstance(topo, classes, report, caps)
		if err != nil {
			return nil, err
		}
		return core.SolveOpts(inst, core.SolveOptions{Redundancy: 1, Metrics: metrics})
	}

	ctrl, err := control.NewControllerOpts(*listen, control.ControllerOptions{
		HashKey: uint32(*hashKey),
		Metrics: metrics,
	})
	if err != nil {
		return fail(err)
	}
	defer ctrl.Close()

	start := time.Now()
	plan, err := solve(start.UnixNano())
	if err != nil {
		return fail(err)
	}
	ctrl.UpdatePlan(plan)
	logger.Printf("serving %s manifests on %s (epoch %d, objective %.4f, solved in %s)",
		topo.Name, ctrl.Addr(), ctrl.Epoch(), plan.Objective, time.Since(start).Round(time.Millisecond))

	var tick <-chan time.Time // nil with -once: serve the one plan
	if !*once {
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-ctx.Done():
			logger.Print("shutting down")
			if err := writeMetrics(metrics, *metricsPath); err != nil {
				logger.Print(err)
			}
			return 0
		case now := <-tick:
			plan, err := solve(now.UnixNano())
			if err != nil {
				logger.Printf("re-optimization failed (serving previous plan): %v", err)
				continue
			}
			ctrl.UpdatePlan(plan)
			logger.Printf("re-optimized: epoch %d, objective %.4f", ctrl.Epoch(), plan.Objective)
		}
	}
}
