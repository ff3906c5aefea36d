package bro

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nwdeploy/internal/packet"
)

// spareReader holds the capture reader, its 128 KiB buffer included, of the
// last RunPcap call to finish, the way packet keeps its stage ring: the next
// call reads through it instead of allocating one. Calls that overlap build
// readers of their own.
var spareReader atomic.Pointer[packet.Reader]

// RunPcap drives the engine from a libpcap capture instead of a session
// list: frames are decoded and reassembled into sessions, and each session
// is processed exactly as Run processes a generated one, as soon as the
// assembler completes it (TCP sessions at teardown, the remainder at end of
// trace in first-packet order) — the capture is never held as a session
// list. This is the ingestion path a deployment outside the simulator would
// use — the trace can come from tcpdump: frames that are not IPv4 TCP/UDP
// (ARP, IPv6, ICMP) are skipped, and only a malformed frame fails the run.
// idle is the reassembly timeout: a flow silent for longer is split.
//
// With GOMAXPROCS above 1, packet.StreamSessions reads r and parses its
// frames' headers on a helper goroutine, a batch ahead, while the
// assembler and the engine run on the caller's goroutine in frame order,
// so the report is the same either way; a panic in r surfaces here, after
// the sessions before it.
func RunPcap(cfg Config, r io.Reader, idle time.Duration) (Report, error) {
	sp := cfg.Metrics.StartSpan("bro.run_ns")
	defer sp.End()
	e := new(engine) // on the heap: processSession is handed out as a callback
	e.init(cfg, nil)
	pr := spareReader.Swap(nil)
	if pr == nil {
		pr = packet.NewReader(r)
	} else {
		pr.Reset(r)
	}
	asm, err := packet.StreamSessions(pr, idle, cfg.Hasher.Key, e.processSession)
	pr.Reset(nil) // the slot must not keep the caller's stream alive
	spareReader.Store(pr)
	if err != nil {
		return Report{}, fmt.Errorf("bro: reading pcap: %w", err)
	}
	if asm.Malformed > 0 {
		return Report{}, fmt.Errorf("bro: %d malformed frames in trace", asm.Malformed)
	}
	return e.finish(), nil
}
