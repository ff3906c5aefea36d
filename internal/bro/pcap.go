package bro

import (
	"fmt"
	"io"
	"time"

	"nwdeploy/internal/packet"
)

// RunPcap drives the engine from a libpcap capture instead of a session
// list: frames are decoded and reassembled into sessions, and each session
// is processed exactly as Run processes a generated one, as soon as the
// assembler completes it (TCP sessions at teardown, the remainder at end of
// trace in first-packet order) — the capture is never held as a session
// list. This is the ingestion path a deployment outside the simulator would
// use — the trace can come from tcpdump: frames that are not IPv4 TCP/UDP
// (ARP, IPv6, ICMP) are skipped, and only a malformed frame fails the run.
// idle is the reassembly timeout: a flow silent for longer is split.
func RunPcap(cfg Config, r io.Reader, idle time.Duration) (Report, error) {
	sp := cfg.Metrics.StartSpan("bro.run_ns")
	defer sp.End()
	e := new(engine) // on the heap: processSession is handed out as a callback
	e.init(cfg, nil)
	asm, err := packet.StreamSessions(packet.NewReader(r), idle, cfg.Hasher.Key, e.processSession)
	if err != nil {
		return Report{}, fmt.Errorf("bro: reading pcap: %w", err)
	}
	if asm.Malformed > 0 {
		return Report{}, fmt.Errorf("bro: %d malformed frames in trace", asm.Malformed)
	}
	return e.finish(), nil
}
