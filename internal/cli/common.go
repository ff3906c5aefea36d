// Package cli holds the body of every operator command. A command is a
// function of its context, arguments and output streams that returns the
// process exit code — 0 ok, 1 a failed run, 2 a flag error (-h is 0) — so
// tests call it in-process; cmd/<name> is one call to Main.
//
// A command writes only to the streams it is given and owns everything it
// starts: its debug server and files are closed before it returns.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/topology"
)

// Command is one operator command.
type Command func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// commands is the dispatch table Main (and the README doc test) runs from.
var commands = map[string]Command{
	"auditcheck":  Auditcheck,
	"cluster":     Cluster,
	"controller":  Controller,
	"experiments": Experiments,
	"fleetstat":   Fleetstat,
	"nwdeploy":    Nwdeploy,
}

// shutdownGrace is how long Main waits, after SIGINT or SIGTERM, for the
// command to return. The controller watches its context and returns within
// it; the batch commands do not, and are cut off as the signal would have.
const shutdownGrace = 5 * time.Second

// Main runs the named command as the process: os.Args, stdout and stderr,
// a context cancelled by SIGINT or SIGTERM, and os.Exit with its code.
func Main(name string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process outright
		time.Sleep(shutdownGrace)
		os.Exit(1)
	}()
	os.Exit(commands[name](ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// parseFlags parses args into fs, which reports errors and -h usage on
// stderr. ok is false when the command must return code at once.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// failer returns the failure exit for command name: print "name: err" on
// stderr and return 1.
func failer(name string, stderr io.Writer) func(error) int {
	return func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
}

// topologies are the built-in networks a -topology flag or spec names.
var topologies = map[string]func() *topology.Topology{
	"internet2": topology.Internet2,
	"geant":     topology.Geant,
	"as1221":    func() *topology.Topology { return topology.RocketfuelLike(topology.AS1221) },
	"as1239":    func() *topology.Topology { return topology.RocketfuelLike(topology.AS1239) },
	"as3257":    func() *topology.Topology { return topology.RocketfuelLike(topology.AS3257) },
	"isp50":     topology.FiftyNode,
}

const topologyNames = "internet2 | geant | as1221 | as1239 | as3257 | isp50"

// topologyByName builds the named built-in topology.
func topologyByName(name string) (*topology.Topology, error) {
	build, ok := topologies[name]
	if !ok {
		return nil, fmt.Errorf("unknown topology %q", name)
	}
	return build(), nil
}

// serveDebug binds addr before the run starts and serves the debug
// surface (obshttp.NewMux) on it until stop, which waits for the server
// goroutine to exit. An empty addr serves nothing; an address that cannot
// be bound is an error naming it. bound is the address actually bound
// (addr with a ":0" port resolved).
func serveDebug(addr string, o obshttp.Options) (bound string, stop func(), err error) {
	if addr == "" {
		return "", func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("-pprof %s: %w", addr, err)
	}
	srv := &http.Server{Handler: obshttp.NewMux(o)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // ErrServerClosed once stop runs
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close() // closes ln and every open connection
		<-served
	}, nil
}

// writeMetrics writes the -metrics snapshot when path is set.
func writeMetrics(r *obs.Registry, path string) error {
	if path == "" {
		return nil
	}
	if err := r.WriteFile(path); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}

// The on-disk ledger layout under one directory: chain.jsonl (the
// hash-chained record log), objects/ (content-addressed blobs) and HEAD
// (the pinned chain head digest, the run's one trust anchor).
const (
	chainFile  = "chain.jsonl"
	headFile   = "HEAD"
	objectsDir = "objects"
)

// ledgerWriter records a run's ledger into a directory.
type ledgerWriter struct {
	dir   string
	led   *ledger.Ledger
	chain *os.File
}

// createLedger lays out dir and returns a writer whose ledger streams each
// committed record into chain.jsonl.
func createLedger(dir string, seed int64) (*ledgerWriter, error) {
	store, err := ledger.NewDirStore(filepath.Join(dir, objectsDir))
	if err != nil {
		return nil, fmt.Errorf("creating ledger store: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, chainFile))
	if err != nil {
		return nil, fmt.Errorf("creating ledger chain: %w", err)
	}
	return &ledgerWriter{dir: dir, chain: f, led: ledger.New(ledger.Options{Seed: seed, Store: store, Sink: f})}, nil
}

// seal closes chain.jsonl and pins the head digest in HEAD. The creator
// also defers closing chain.jsonl, for the paths that never seal.
func (w *ledgerWriter) seal() (head string, err error) {
	if err := w.led.Err(); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	if err := w.chain.Close(); err != nil {
		return "", fmt.Errorf("closing ledger chain: %w", err)
	}
	head = w.led.HeadHex()
	if err := os.WriteFile(filepath.Join(w.dir, headFile), []byte(head+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("writing ledger HEAD: %w", err)
	}
	return head, nil
}

// readLedger loads what createLedger and seal wrote: the raw chain, and
// the pinned head and blob store to verify it against.
func readLedger(dir string) ([]byte, ledger.VerifyOptions, error) {
	chain, err := os.ReadFile(filepath.Join(dir, chainFile))
	if err != nil {
		return nil, ledger.VerifyOptions{}, err
	}
	head, err := os.ReadFile(filepath.Join(dir, headFile))
	if err != nil {
		return nil, ledger.VerifyOptions{}, fmt.Errorf("reading pinned head (run with -ledger to produce one): %w", err)
	}
	store, err := ledger.NewDirStore(filepath.Join(dir, objectsDir))
	return chain, ledger.VerifyOptions{Head: strings.TrimSpace(string(head)), Store: store}, err
}
