// Package obshttp exposes a Registry, the fleet telemetry plane, and the
// Go runtime profiler over HTTP for the long-running commands. It lives
// in its own package so that instrumented libraries (internal/lp,
// internal/bro, ...) do not link net/http merely by importing
// internal/obs.
package obshttp

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"

	"nwdeploy/internal/obs"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/trace"
)

// Options selects what a mux serves. Every field may be nil: the routes
// still exist and render empty snapshots, so scrapers never see a 404
// for a merely-unconfigured source.
type Options struct {
	Registry *obs.Registry
	Tracer   *trace.Tracer
	// Fleet serves /fleet (latest snapshot) and /metrics.prom gains the
	// fleet_* families; History serves /fleet/history.
	Fleet   *telemetry.Fleet
	History *telemetry.History
}

// NewMux builds a fresh ServeMux with the debug endpoints:
//
//	/metrics       the registry's text snapshot (one "name value" per line)
//	/metrics.json  the registry's JSON snapshot
//	/metrics.prom  Prometheus text exposition (registry + fleet families)
//	/trace         the flight recorder's current rings as a JSONL dump
//	/fleet         the latest fleet snapshot as JSON
//	/fleet/history the retained per-epoch snapshots as a JSON array
//	/debug/pprof/  the stdlib profiler
//	/debug/vars    expvar: the Go runtime's vars (the registry is at /metrics*)
//
// Each call returns an independent mux, so two servers in one process
// (or one per test) never collide — nothing is registered on
// http.DefaultServeMux.
func NewMux(o Options) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = o.Registry.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = o.Registry.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.WriteProm(w, o.Registry.Snapshot())
		_ = telemetry.WriteFleetProm(w, o.Fleet.Latest())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = o.Tracer.Dump(w, "http")
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := o.Fleet.Latest()
		if snap == nil {
			_, _ = w.Write([]byte("null\n"))
			return
		}
		_ = writeJSONIndent(w, snap)
	})
	mux.HandleFunc("/fleet/history", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = o.History.WriteJSON(w)
	})
	// The stdlib profiler and expvar, wired explicitly: the blank pprof
	// import would touch only DefaultServeMux, which this package
	// deliberately leaves alone.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
