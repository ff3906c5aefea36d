package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"nwdeploy/internal/traffic"
)

// streamed is what one ingest of a capture produced: the sessions emitted,
// in order; the counters, when the stream ended cleanly; the read error;
// and the value it panicked with.
type streamed struct {
	sessions                    []traffic.Session
	decoded, malformed, ignored int
	err                         string
	panicVal                    any
}

const (
	streamIdle = time.Minute
	streamKey  = 9
)

// feedLoop is the oracle of StreamSessions: the frame-by-frame loop,
// ReadPacket then Feed, that it ran before its two stages were split.
func feedLoop(src io.Reader) (out streamed) {
	defer func() { out.panicVal = recover() }()
	pr := NewReader(src)
	a := NewAssembler(streamIdle, streamKey)
	for {
		ts, frame, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err.Error()
			return out
		}
		if s, ok := a.Feed(ts, frame); ok {
			out.sessions = append(out.sessions, s)
		}
	}
	out.sessions = append(out.sessions, a.Flush()...)
	out.decoded, out.malformed, out.ignored = a.Decoded, a.Malformed, a.Ignored
	return out
}

// stream runs StreamSessions over src: at GOMAXPROCS 1 it fills and drains
// each batch inline, above 1 it reads ahead on the helper.
func stream(src io.Reader) (out streamed) {
	defer func() { out.panicVal = recover() }()
	a, err := StreamSessions(NewReader(src), streamIdle, streamKey, func(s *traffic.Session) {
		out.sessions = append(out.sessions, *s)
	})
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.decoded, out.malformed, out.ignored = a.Decoded, a.Malformed, a.Ignored
	return out
}

// helperLeft waits briefly for readAhead's goroutine to vanish (the caller
// joins it on the WaitGroup it signals as it returns, a few instructions
// before it is gone) and reports whether one is still there.
func helperLeft() bool {
	deadline := time.Now().Add(2 * time.Second)
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) { // truncated
			buf = make([]byte, 2*len(buf))
			continue
		}
		if !bytes.Contains(buf[:n], []byte(".readAhead(")) {
			return false
		}
		if time.Now().After(deadline) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
}

// source names a capture and opens a fresh reader of it.
type source struct {
	name string
	open func() io.Reader
}

func capturedSource(name string, capture []byte) source {
	return source{name, func() io.Reader { return bytes.NewReader(capture) }}
}

// checkStreams holds StreamSessions at GOMAXPROCS 1 and 2 to the Feed loop
// over each source, and checks no helper outlived the calls.
func checkStreams(t testing.TB, sources ...source) {
	t.Helper()
	compareStreams(t, sources...)
	if helperLeft() {
		t.Fatal("a helper outlived StreamSessions")
	}
}

// compareStreams is checkStreams without the wait for stray helpers, whose
// polling would make a fuzzer's coverage depend on the scheduler; at the
// end of the run leakcheck.Main still catches a helper left behind.
func compareStreams(t testing.TB, sources ...source) {
	t.Helper()
	wants := make([]streamed, len(sources))
	for i, src := range sources {
		wants[i] = feedLoop(src.open())
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for i, src := range sources {
			if got, want := stream(src.open()), wants[i]; !reflect.DeepEqual(got, want) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("%s, GOMAXPROCS %d: %d sessions, counters %d/%d/%d, err %q, panic %v; the Feed loop: %d sessions, %d/%d/%d, err %q, panic %v",
					src.name, procs, len(got.sessions), got.decoded, got.malformed, got.ignored, got.err, got.panicVal,
					len(want.sessions), want.decoded, want.malformed, want.ignored, want.err, want.panicVal)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// Calls that overlap each stream on a ring of their own (the spare slot
// holds one): four goroutines reading one capture at once all emit the
// Feed loop's sessions and counters.
func TestStreamSessionsConcurrent(t *testing.T) {
	capture := bigCapture(t)
	want := feedLoop(bytes.NewReader(capture))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	got := make([]streamed, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = stream(bytes.NewReader(capture))
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("call %d of 4 at once: %d sessions, err %q; the Feed loop: %d sessions", i, len(got[i].sessions), got[i].err, len(want.sessions))
		}
	}
	if helperLeft() {
		t.Fatal("a helper outlived StreamSessions")
	}
}

// recordEnds returns the offset just past each record of a capture.
func recordEnds(t testing.TB, capture []byte) []int {
	t.Helper()
	var ends []int
	for off := pcapGlobalBytes; off < len(capture); {
		off += pcapRecordBytes + int(binary.LittleEndian.Uint32(capture[off+8:off+12]))
		ends = append(ends, off)
	}
	if ends[len(ends)-1] != len(capture) {
		t.Fatal("capture does not end at a record boundary")
	}
	return ends
}

// bigCapture spans more batches than the ring holds, so the helper wraps
// around it, and ends part-way through a batch.
func bigCapture(t testing.TB) []byte {
	t.Helper()
	capture := genCapture(t, 400, 9, time.Second)
	if n := len(recordEnds(t, capture)); n <= (ringBatches+1)*batchFrames || n%batchFrames == 0 {
		t.Fatalf("capture has %d frames; the tests want more than %d, not a whole number of batches", n, (ringBatches+1)*batchFrames)
	}
	return capture
}

// withForeignFrames returns capture with frame k's IPv4 checksum broken
// (malformed) and frame k+1 turned into ARP (ignored), each k in ks.
func withForeignFrames(t testing.TB, capture []byte, ks ...int) []byte {
	t.Helper()
	out := bytes.Clone(capture)
	ends := recordEnds(t, out)
	body := func(k int) []byte {
		start := pcapGlobalBytes
		if k > 0 {
			start = ends[k-1]
		}
		return out[start+pcapRecordBytes : ends[k]]
	}
	for _, k := range ks {
		body(k)[EthernetHeaderLen+8] ^= 0x01
		arp := body(k + 1)
		arp[12], arp[13] = 0x08, 0x06
	}
	return out
}

// StreamSessions, inline or pipelined, emits the Feed loop's sessions in
// its order and ends with its counters, over captures of every shape: one
// batch or several (more than the ring holds), malformed and foreign frames
// (one at a batch boundary), nothing after the global header, no bytes at
// all, and sources that deliver a byte or half a buffer at a time.
func TestStreamSessionsMatchesFeed(t *testing.T) {
	big := bigCapture(t)
	var sources []source
	for _, tc := range []struct {
		name    string
		capture []byte
	}{
		{"tiny", tinyCapture(t)},
		{"big", big},
		{"foreign frames", withForeignFrames(t, big, 3, batchFrames-1, 2*batchFrames+500)},
		{"header only", big[:pcapGlobalBytes]},
		{"empty", nil},
		{"not pcap", []byte("this is not a pcap file at all....")},
	} {
		sources = append(sources, capturedSource(tc.name, tc.capture))
	}
	sources = append(sources,
		source{"one byte per read", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(big)) }},
		source{"half reads", func() io.Reader { return iotest.HalfReader(bytes.NewReader(big)) }})
	checkStreams(t, sources...)
	if got := feedLoop(bytes.NewReader(withForeignFrames(t, big, 3))); got.malformed != 1 || got.ignored != 1 {
		t.Fatalf("malformed %d ignored %d, want 1 and 1", got.malformed, got.ignored)
	}
}

// A capture cut inside its first records, the records around the first
// batch boundary or its last record ends where the Feed loop ends: the
// same sessions emitted, then the same error, or the same counters when the
// cut falls on a record boundary. The first records are cut at every
// offset; the later ones, each of which costs a read up to it, at every
// offset within 20 bytes of a record boundary (the whole record header
// included) and at every 61st in between.
func TestStreamTruncatedAtEveryOffset(t *testing.T) {
	capture := bigCapture(t)
	ends := recordEnds(t, capture)
	starts := append([]int{pcapGlobalBytes}, ends[:len(ends)-1]...)
	near := func(cut int, records []int) bool {
		for _, k := range records {
			if abs(cut-starts[k]) <= 20 || abs(cut-ends[k]) <= 20 {
				return true
			}
		}
		return false
	}
	var sources []source
	for cut := 0; cut <= ends[2]; cut++ {
		sources = append(sources, capturedSource(fmt.Sprintf("cut %d", cut), capture[:cut]))
	}
	for _, records := range [][]int{{batchFrames - 1, batchFrames}, {len(ends) - 1}} {
		lo := starts[records[0]]
		for cut := lo; cut <= ends[records[len(records)-1]]; cut++ {
			if (cut-lo)%61 == 0 || near(cut, records) {
				sources = append(sources, capturedSource(fmt.Sprintf("cut %d", cut), capture[:cut]))
			}
		}
	}
	checkStreams(t, sources...)
}

func abs(x int) int { return max(x, -x) }

// failingReader hands over data up to n bytes, then fails every read with err.
type failingReader struct {
	data []byte
	n    int
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	m := copy(p, f.data[:min(f.n, len(f.data))])
	f.data, f.n = f.data[m:], f.n-m
	return m, nil
}

var errSource = errors.New("source failed")

// A source that fails with an error other than io.EOF, in a record header,
// in a record body or at a record boundary, in the first batch or a later
// one, stops StreamSessions at the frame where it stops the Feed loop, with
// the same error and the same sessions emitted first.
func TestStreamSourceError(t *testing.T) {
	capture := bigCapture(t)
	ends := recordEnds(t, capture)
	var sources []source
	for _, n := range []int{0, 10, pcapGlobalBytes + 5, ends[0], ends[0] + 40,
		ends[batchFrames-1], ends[batchFrames] - 3, ends[3*batchFrames+7] + 9, len(capture) - 1, len(capture)} {
		open := func() io.Reader { return &failingReader{data: capture, n: n, err: errSource} }
		if want := feedLoop(open()); n < len(capture) && !strings.Contains(want.err, errSource.Error()) {
			t.Fatalf("fail at %d: the Feed loop ended with %q, not the source's error", n, want.err)
		}
		sources = append(sources, source{fmt.Sprintf("fail at %d", n), open})
	}
	checkStreams(t, sources...)
}

// panickingReader hands over data up to n bytes, then panics.
type panickingReader struct {
	data []byte
	n    int
}

var errSourcePanic = errors.New("source panicked")

func (p *panickingReader) Read(b []byte) (int, error) {
	if p.n <= 0 {
		panic(errSourcePanic)
	}
	m := copy(b, p.data[:min(p.n, len(p.data))])
	p.data, p.n = p.data[m:], p.n-m
	return m, nil
}

// A source that panics surfaces from StreamSessions on the caller's
// goroutine, with its value, once the sessions completed before it have
// been emitted — those of the Feed loop, which panics in the same read —
// and leaves no helper behind.
func TestStreamSourcePanic(t *testing.T) {
	capture := bigCapture(t)
	ends := recordEnds(t, capture)
	var sources []source
	for _, n := range []int{0, ends[0] + 40, ends[batchFrames] - 3, ends[3*batchFrames+7]} {
		open := func() io.Reader { return &panickingReader{data: capture, n: n} }
		if want := feedLoop(open()); want.panicVal != errSourcePanic {
			t.Fatalf("panic at %d: the Feed loop panicked with %v", n, want.panicVal)
		}
		sources = append(sources, source{fmt.Sprintf("panic at %d", n), open})
	}
	checkStreams(t, sources...)
}

var errEmit = errors.New("emit panicked")

// A panic in emit — on a session completed in the first batch, in a later
// one while the helper is reading ahead, or in the flushed remainder —
// surfaces from StreamSessions with its value after exactly the sessions
// before it, and leaves no helper behind.
func TestStreamEmitPanic(t *testing.T) {
	capture := bigCapture(t)
	all := feedLoop(bytes.NewReader(capture)).sessions
	for _, k := range []int{0, len(all) / 2, len(all) - 1} {
		for _, procs := range []int{1, 2} {
			var emitted int
			got := func() (v any) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				defer func() { v = recover() }()
				_, err := StreamSessions(NewReader(bytes.NewReader(capture)), streamIdle, streamKey, func(s *traffic.Session) {
					if emitted == k {
						panic(errEmit)
					}
					if *s != all[emitted] {
						t.Fatalf("session %d is not the Feed loop's", emitted)
					}
					emitted++
				})
				t.Fatalf("StreamSessions returned (err %v) past a panic in emit", err)
				return nil
			}()
			if got != errEmit || emitted != k {
				t.Fatalf("emit panics at session %d, GOMAXPROCS %d: recovered %v after %d sessions", k, procs, got, emitted)
			}
			if helperLeft() {
				t.Fatalf("emit panics at session %d, GOMAXPROCS %d: a helper outlived StreamSessions", k, procs)
			}
		}
	}
}

// A warm pipelined StreamSessions allocates what the inline one (GOMAXPROCS
// 1) does over the same capture, within 1 KB: the ring, batches included,
// is the last call's, also across a garbage collection, and the go
// statement allocates at most a goroutine descriptor, when the caller's P
// has no exited one to reuse. Each side reads the median of nine calls
// after a warm-up.
func TestStreamPipelineAlloc(t *testing.T) {
	capture := bigCapture(t)
	bytesAt := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		run := func() {
			if _, _, err := ReadSessions(NewReader(bytes.NewReader(capture)), streamIdle, streamKey); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 9
		got := make([]uint64, runs)
		for i := range got {
			if i%3 == 0 {
				runtime.GC() // twice would empty a sync.Pool
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			got[i] = after.TotalAlloc - before.TotalAlloc
		}
		t.Logf("GOMAXPROCS %d: bytes per call %v", procs, got)
		slices.Sort(got)
		return got[runs/2]
	}
	inline, pipelined := bytesAt(1), bytesAt(2)
	if pipelined > inline+1024 {
		t.Fatalf("a warm pipelined StreamSessions allocates %d bytes, the inline one %d: more than 1 KB apart", pipelined, inline)
	}
}

// classifyRef is classify by way of Decode, the reference its header-only
// parse is held to.
func classifyRef(ts time.Time, frame []byte) frameRec {
	var d Decoder
	rec := frameRec{ts: ts, size: int32(len(frame))}
	if err := d.Decode(frame); err != nil {
		if errors.Is(err, ErrNotIPv4) || errors.Is(err, ErrUnknownProto) || errors.Is(err, ErrFragment) {
			rec.kind = frameIgnored
		} else {
			rec.kind = frameMalformed
		}
		return rec
	}
	if !d.IP.ChecksumValid() {
		rec.kind = frameMalformed
		return rec
	}
	rec.kind, rec.ft = frameDecoded, d.FiveTuple()
	if rec.ft.Proto == ProtoTCP {
		rec.flags = d.TCP.Flags
	}
	return rec
}

// checkClassify fails t unless classify writes classifyRef's record.
func checkClassify(t testing.TB, ts time.Time, frame []byte) {
	t.Helper()
	var got frameRec
	got.classify(ts, frame)
	if want := classifyRef(ts, frame); got != want {
		t.Fatalf("classify(% x)\n got %+v\nwant %+v (Decode's)", frame, got, want)
	}
}

// classify sorts and records every frame as Decode does: each frame of two
// captures; each of a TCP, a UDP and a non-first-fragment frame cut to every
// length and with every header byte set to each of several values (bad
// versions, header lengths, data offsets, protocols and checksums among
// them, and total lengths short of, at and past the IPv4 header's end); and
// random bytes.
func TestClassifyMatchesDecode(t *testing.T) {
	for _, f := range append(readAll(t, bytes.NewReader(genCapture(t, 40, 4, time.Second))), readAll(t, bytes.NewReader(tinyCapture(t)))...) {
		checkClassify(t, f.TS, f.Data)
	}
	tcp, err := Build(Ethernet{}, 0x0a000001, 0x0a010001, ProtoTCP, &TCP{SrcPort: 40000, DstPort: 80, Flags: FlagFIN | FlagACK}, nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	fragment := udpFrame(t, 0x0a000001, 0x0a010001, 5000, 53)
	binary.BigEndian.PutUint16(fragment[EthernetHeaderLen+6:], 185)
	for _, base := range [][]byte{tcp, udpFrame(t, 0x0a000001, 0x0a010001, 5000, 53), fragment} {
		for n := 0; n <= len(base); n++ {
			checkClassify(t, baseTS, base[:n])
		}
		headers := min(len(base), EthernetHeaderLen+IPv4HeaderLen+TCPHeaderLen)
		for i := 0; i < headers; i++ {
			for _, v := range []byte{0, 1, 4, 6, 17, 20, 28, 40, 0x45, 0x46, 0x50, 0x80, 0xff, base[i] ^ 0x01, base[i] ^ 0x10} {
				frame := bytes.Clone(base)
				frame[i] = v
				checkClassify(t, baseTS, frame)
				// The same header with a checksum that holds for it, so the
				// parse gets past the checksum to the transport checks.
				ip := frame[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
				binary.BigEndian.PutUint16(ip[10:12], 0)
				binary.BigEndian.PutUint16(ip[10:12], internetChecksum(ip, 0))
				checkClassify(t, baseTS, frame)
			}
		}
	}
	f := func(data []byte) bool {
		checkClassify(t, baseTS, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
