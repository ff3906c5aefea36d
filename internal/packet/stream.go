package packet

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nwdeploy/internal/traffic"
)

// Two-stage ingest. A frame's step splits into classify (parse the headers,
// check the IPv4 checksum: pure per frame) and track (counters, flow table,
// pending slot, teardown: stateful, in frame order). StreamSessions reads
// and classifies on a helper goroutine, batchFrames frames at a time, into
// a ring of ringBatches batches, while the caller's goroutine tracks,
// finalizes and emits (in RunPcap: analyzes) the batch before. Both sides
// park on channels: at this batch size a park and wake per batch is a small
// fraction of the batch's work, where at 256 frames it cost over half the
// gain. With GOMAXPROCS 1 the caller fills each batch itself and drains it,
// the same loop with no helper.
const (
	batchFrames = 1024 // frames per hand-off
	ringBatches = 4    // batches between the two stages
)

// batch is one hand-off from classify to track: the records of up to
// batchFrames frames, then how the stream went on after them.
type batch struct {
	recs     [batchFrames]frameRec
	n        int   // recs[:n] are filled
	err      error // the read error after recs[:n]; io.EOF at the end of the capture
	panicked bool  // the source panicked after recs[:n]
	panicVal any
}

// last reports whether the stream ends with this batch.
func (b *batch) last() bool { return b.err != nil || b.panicked }

// errStopped ends the batch the helper sends when the caller stops it
// early (a panic in emit); the caller never returns it.
var errStopped = errors.New("packet: ingest stopped")

// ring is one StreamSessions call's stage state. A call leaves its ring in
// spare, after its helper has been joined and every batch is back on free,
// and the next call takes it from there, so a warm call allocates none.
type ring struct {
	src  *Reader
	read func() // r.readAhead, bound once so the go statement allocates nothing

	free, full chan *batch
	held       *batch // the batch the caller is draining, pipelined only
	stop       atomic.Bool
	helper     sync.WaitGroup

	batches [ringBatches]batch
}

// spare holds the ring of the last call to finish. Unlike a sync.Pool it
// keeps the ring (200 KB) through garbage collections: a pool drops what
// two collections find unused, and then the next call allocates it anew.
// Calls that overlap build rings of their own; the last to finish leaves
// its ring here.
var spare atomic.Pointer[ring]

func takeRing() *ring {
	if r := spare.Swap(nil); r != nil {
		return r
	}
	// Each channel holds every batch, so no send ever blocks.
	r := &ring{free: make(chan *batch, ringBatches), full: make(chan *batch, ringBatches)}
	r.read = r.readAhead
	for i := range r.batches {
		r.free <- &r.batches[i]
	}
	return r
}

// fill reads and classifies frames into b until it holds batchFrames or
// the stream ends. A panic in the source is recovered into b, behind the
// frames read before it.
func (r *ring) fill(b *batch) {
	b.n, b.err, b.panicked, b.panicVal = 0, nil, false, nil
	defer func() {
		if v := recover(); v != nil {
			b.panicked, b.panicVal = true, v
		}
	}()
	for b.n < batchFrames {
		ts, frame, err := r.src.ReadPacket()
		if err != nil {
			b.err = err
			return
		}
		b.recs[b.n].classify(ts, frame)
		b.n++
	}
}

// readAhead is the helper: it fills free batches and hands them over in
// order until the stream ends or the caller stops it. Each batch it takes
// it sends back, so it never blocks on a send, and the caller, which keeps
// returning batches until the last one, never leaves it blocked on free.
func (r *ring) readAhead() {
	defer r.helper.Done()
	for {
		b := <-r.free
		if r.stop.Load() {
			b.n, b.err, b.panicked, b.panicVal = 0, errStopped, false, nil
			r.full <- b
			return
		}
		r.fill(b)
		last := b.last() // b is the caller's once sent
		r.full <- b
		if last {
			return
		}
	}
}

// next returns the caller's next batch: the helper's next one when
// pipelined (handing the drained one back), else one filled here.
func (r *ring) next(pipelined bool) *batch {
	if !pipelined {
		b := &r.batches[0]
		r.fill(b)
		return b
	}
	if r.held != nil {
		r.free <- r.held
	}
	r.held = <-r.full
	return r.held
}

// release joins the helper, if one was started, and leaves the ring in
// spare. The caller defers it, so the helper is joined on every way out:
// the end of the stream, a read error, a source panic and a panic in emit.
func (r *ring) release(pipelined bool) {
	if pipelined {
		r.stop.Store(true)
		for r.held == nil || !r.held.last() {
			if r.held != nil {
				r.free <- r.held
			}
			r.held = <-r.full
		}
		r.free <- r.held
		r.held = nil
		r.helper.Wait()
		r.stop.Store(false)
	}
	r.src = nil
	spare.Store(r)
}

// StreamSessions drains a pcap stream through a fresh assembler, handing
// emit each session as it completes and then the flushed remainder. The
// pointer is valid only for the duration of the call.
//
// With GOMAXPROCS above 1 the stream is read and classified on a helper
// goroutine, a batch of frames ahead, while the caller's goroutine tracks
// flows and runs emit, always in frame order: the sessions, the counters
// and the frame a read error stops at are those of a frame-by-frame loop.
// The helper is joined before StreamSessions returns or panics; a panic in
// r's source is raised again on the caller's goroutine once the frames
// before it have been emitted.
func StreamSessions(r *Reader, idle time.Duration, hashKey uint32, emit func(*traffic.Session)) (*Assembler, error) {
	a := NewAssembler(idle, hashKey)
	rg := takeRing()
	rg.src = r
	pipelined := runtime.GOMAXPROCS(0) > 1
	if pipelined {
		rg.helper.Add(1)
		go rg.read()
	}
	defer rg.release(pipelined)
	var s traffic.Session // one variable for the whole stream: emit makes it escape
	for {
		b := rg.next(pipelined)
		for i := range b.recs[:b.n] {
			if slot := a.track(&b.recs[i]); slot != 0 {
				a.finalize(slot, &s)
				emit(&s)
			}
		}
		if b.panicked {
			panic(b.panicVal)
		}
		if b.err == io.EOF {
			break
		}
		if b.err != nil {
			return nil, b.err
		}
	}
	rest := a.Flush()
	for i := range rest {
		emit(&rest[i])
	}
	return a, nil
}

// ReadSessions collects what StreamSessions emits: completed sessions in
// stream order followed by the flushed remainder.
func ReadSessions(r *Reader, idle time.Duration, hashKey uint32) ([]traffic.Session, *Assembler, error) {
	var out []traffic.Session
	a, err := StreamSessions(r, idle, hashKey, func(s *traffic.Session) { out = append(out, *s) })
	if err != nil {
		return nil, nil, err
	}
	return out, a, nil
}
