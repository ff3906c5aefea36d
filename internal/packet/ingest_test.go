package packet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// genCapture writes n generated sessions as a pcap capture.
func genCapture(t testing.TB, n int, seed int64, spread time.Duration) []byte {
	t.Helper()
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: n, Seed: seed})
	var buf bytes.Buffer
	if _, err := WriteSessionsPcap(NewWriter(&buf), sessions, baseTS, spread, seed+6); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyCapture is one short TCP session and one UDP exchange, a couple of
// kilobytes: a seed the fuzzers can mutate thousands of times a second,
// next to the realistic 20-session one.
func tinyCapture(t testing.TB) []byte {
	t.Helper()
	sessions := []traffic.Session{
		{ID: 0, Tuple: hashing.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a010001, SrcPort: 40000, DstPort: 80, Proto: ProtoTCP}, Packets: 9, Bytes: 700},
		{ID: 1, Tuple: hashing.FiveTuple{SrcIP: 0x0a020001, DstIP: 0x0a030001, SrcPort: 5000, DstPort: 53, Proto: ProtoUDP}, Packets: 2, Bytes: 200},
	}
	var buf bytes.Buffer
	if _, err := WriteSessionsPcap(NewWriter(&buf), sessions, baseTS, time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains r, copying every frame out of the Reader's buffer.
func readAll(t testing.TB, r io.Reader) (frames []Frame) {
	t.Helper()
	pr := NewReader(r)
	for {
		ts, frame, err := pr.ReadPacket()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, Frame{TS: ts, Data: bytes.Clone(frame)})
	}
}

func udpFrame(t testing.TB, src, dst uint32, sp, dp uint16) []byte {
	t.Helper()
	frame, err := Build(Ethernet{SrcMAC: macFor(src), DstMAC: macFor(dst)}, src, dst, ProtoUDP,
		nil, &UDP{SrcPort: sp, DstPort: dp}, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// The refill logic must not depend on how the source chunks its bytes: one
// byte per Read, and data delivered together with io.EOF, both yield the
// frames and timestamps of a plain read.
func TestReaderIndependentOfSourceChunking(t *testing.T) {
	capture := genCapture(t, 30, 3, time.Second)
	want := readAll(t, bytes.NewReader(capture))
	if len(want) == 0 {
		t.Fatal("empty capture")
	}
	for name, src := range map[string]io.Reader{
		"OneByteReader": iotest.OneByteReader(bytes.NewReader(capture)),
		"DataErrReader": iotest.DataErrReader(bytes.NewReader(capture)),
		"HalfReader":    iotest.HalfReader(bytes.NewReader(capture)),
	} {
		if got := readAll(t, src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d frames differ from the plain read's %d", name, len(got), len(want))
		}
	}
}

// A capture cut anywhere inside its first three records reads cleanly up to
// the last whole record and then reports the cut: io.EOF exactly at a
// record boundary (or for an empty stream), an error everywhere else —
// never a panic, never a short frame.
func TestReaderTruncatedAtEveryOffset(t *testing.T) {
	capture := genCapture(t, 10, 5, 0)
	whole := readAll(t, bytes.NewReader(capture))
	boundary := map[int]int{0: 0, pcapGlobalBytes: 0} // cut offset -> whole records before it
	end := pcapGlobalBytes
	for i := 0; i < 3; i++ {
		end += pcapRecordBytes + len(whole[i].Data)
		boundary[end] = i + 1
	}
	for cut := 0; cut <= end; cut++ {
		pr := NewReader(bytes.NewReader(capture[:cut]))
		n := 0
		var err error
		for {
			var frame []byte
			if _, frame, err = pr.ReadPacket(); err != nil {
				break
			}
			if n >= 3 || !bytes.Equal(frame, whole[n].Data) {
				t.Fatalf("cut %d: frame %d is not the capture's", cut, n)
			}
			n++
		}
		if want, ok := boundary[cut]; ok {
			if err != io.EOF || n != want {
				t.Fatalf("cut %d (boundary): %d frames then %v, want %d then io.EOF", cut, n, err, want)
			}
		} else if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d (mid-record): %d frames then %v, want an unexpected-EOF error", cut, n, err)
		}
	}
}

// The zero-copy contract: a frame is only valid until the next ReadPacket.
// With a source that hands over one byte at a time every record lands at
// the front of the buffer, so the second read must overwrite the first.
func TestReadPacketAliasesBuffer(t *testing.T) {
	capture := genCapture(t, 10, 5, 0)
	want := readAll(t, bytes.NewReader(capture))
	pr := NewReader(iotest.OneByteReader(bytes.NewReader(capture)))
	_, retained, err := pr.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	copied := bytes.Clone(retained)
	if _, _, err := pr.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(copied, want[0].Data) {
		t.Fatal("copied frame changed")
	}
	if bytes.Equal(retained, want[0].Data) {
		t.Fatal("retained frame survived the next ReadPacket: the Reader is copying")
	}
	if cap(retained) != len(retained) {
		t.Fatalf("frame capacity %d exceeds its length %d: an append would reach the next record", cap(retained), len(retained))
	}
}

// Same capture, same sessions, same order — including the flushed
// remainder (UDP and unterminated TCP), which comes in first-packet order.
func TestReadSessionsDeterministic(t *testing.T) {
	capture := genCapture(t, 400, 9, time.Second)
	a, asmA, err := ReadSessions(NewReader(bytes.NewReader(capture)), time.Minute, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ReadSessions(NewReader(bytes.NewReader(capture)), time.Minute, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two reads of one capture disagree")
	}
	flushed := 0
	for i := len(a) - 1; i > 0 && a[i].Tuple.Proto == ProtoUDP; i-- {
		if a[i-1].Tuple.Proto == ProtoUDP && a[i-1].ID > a[i].ID {
			t.Fatalf("flushed sessions out of first-packet order: id %d before %d", a[i-1].ID, a[i].ID)
		}
		flushed++
	}
	if flushed < 2 {
		t.Fatalf("capture has %d flushed sessions; the test needs several", flushed)
	}
	if asmA.Pending() != 0 {
		t.Fatalf("%d sessions pending after ReadSessions", asmA.Pending())
	}
}

// A flow silent for longer than the idle timeout is split: its conntrack
// record expires, the next frame of the tuple starts a new session, and
// Flush emits both halves.
func TestAssemblerSplitsOnIdleGap(t *testing.T) {
	const idle = time.Minute
	a := NewAssembler(idle, 1)
	frame := udpFrame(t, 0x0a000001, 0x0a010001, 5000, 53)
	reply := udpFrame(t, 0x0a010001, 0x0a000001, 53, 5000)
	a.Feed(baseTS, frame)
	a.Feed(baseTS.Add(time.Second), reply)
	a.Feed(baseTS.Add(2*idle), frame)
	if a.Pending() != 2 {
		t.Fatalf("pending = %d after an idle gap, want 2 (orphaned half + new session)", a.Pending())
	}
	if st := a.TableStats(); st.Expired != 1 || st.Created != 2 {
		t.Fatalf("table stats %+v, want one expiry and two creations", st)
	}
	got := a.Flush()
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 || got[0].Packets != 2 || got[1].Packets != 1 {
		t.Fatalf("flushed %+v, want session 0 with 2 packets then session 1 with 1", got)
	}
	if got[0].Tuple != got[1].Tuple {
		t.Fatalf("halves carry different tuples: %v, %v", got[0].Tuple, got[1].Tuple)
	}
}

// Flush leaves the assembler reusable: records that outlive it no longer
// point at the flushed slots, so later frames start fresh sessions even
// when another flow has taken the recycled slot in between.
func TestFeedAfterFlush(t *testing.T) {
	a := NewAssembler(time.Minute, 1)
	f := udpFrame(t, 0x0a000001, 0x0a010001, 5000, 53)
	g := udpFrame(t, 0x0a020001, 0x0a030001, 6000, 53)
	a.Feed(baseTS, f)
	a.Feed(baseTS, f)
	if got := a.Flush(); len(got) != 1 || got[0].Packets != 2 {
		t.Fatalf("first flush %+v, want one session of 2 packets", got)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after Flush", a.Pending())
	}
	a.Feed(baseTS.Add(time.Second), g) // takes the recycled slot
	a.Feed(baseTS.Add(time.Second), f) // f's record is still in the table
	got := a.Flush()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 || got[0].Packets != 1 || got[1].Packets != 1 {
		t.Fatalf("second flush %+v, want sessions 1 and 2 with one packet each", got)
	}
	if got[0].Tuple.SrcPort != 6000 || got[1].Tuple.SrcPort != 5000 {
		t.Fatalf("second flush mixed the flows up: %+v", got)
	}
}

// A frame whose IPv4 header checksum fails is malformed and reaches no
// flow; frames of untracked protocols are ignored, not malformed.
func TestCorruptAndForeignFrames(t *testing.T) {
	frames := readAll(t, bytes.NewReader(genCapture(t, 20, 7, 0)))
	clean := NewAssembler(time.Minute, 1)
	for _, f := range frames {
		clean.Feed(f.TS, f.Data)
	}

	corrupt := bytes.Clone(frames[4].Data)
	corrupt[EthernetHeaderLen+8] ^= 0x01 // TTL: still parses, no longer sums
	arp := bytes.Clone(frames[0].Data)
	arp[12], arp[13] = 0x08, 0x06
	icmp := bytes.Clone(frames[0].Data)
	icmp[EthernetHeaderLen+9] = 1
	binary.BigEndian.PutUint16(icmp[EthernetHeaderLen+10:], 0)
	binary.BigEndian.PutUint16(icmp[EthernetHeaderLen+10:], internetChecksum(icmp[EthernetHeaderLen:EthernetHeaderLen+IPv4HeaderLen], 0))

	a := NewAssembler(time.Minute, 1)
	for i, f := range frames {
		data := f.Data
		if i == 4 {
			data = corrupt
		}
		a.Feed(f.TS, data)
	}
	a.Feed(baseTS, arp)
	a.Feed(baseTS, icmp)
	a.Feed(baseTS, []byte{1, 2, 3})
	if a.Malformed != 2 || a.Ignored != 2 || a.Decoded != len(frames)-1 {
		t.Fatalf("decoded %d malformed %d ignored %d, want %d, 2 (bad checksum, runt), 2 (ARP, ICMP)",
			a.Decoded, a.Malformed, a.Ignored, len(frames)-1)
	}
	if got, want := a.TableStats(), clean.TableStats(); got.Created != want.Created || got.Updated != want.Updated-1 {
		t.Fatalf("table saw %+v; the clean run saw %+v and only the corrupt frame's update may be missing", got, want)
	}
}

// A retransmitted FIN closes only the side that sent it: the client's FIN
// sent twice, then the server's ACK, must not end the session, so the
// server's FIN and the client's final ACK complete one session rather than
// open a phantom second one.
func TestRetransmittedFINClosesOneSide(t *testing.T) {
	cli, srv := uint32(0x0a000001), uint32(0x0a010001)
	steps := []struct {
		fromClient bool
		flags      uint8
	}{
		{true, FlagSYN}, {false, FlagSYN | FlagACK}, {true, FlagACK},
		{true, FlagFIN | FlagACK}, {true, FlagFIN | FlagACK}, // retransmit
		{false, FlagACK}, {false, FlagFIN | FlagACK}, {true, FlagACK},
	}
	a := NewAssembler(time.Minute, 1)
	var done []traffic.Session
	for i, st := range steps {
		src, dst, sp, dp := cli, srv, uint16(40000), uint16(80)
		if !st.fromClient {
			src, dst, sp, dp = srv, cli, dp, sp
		}
		frame, err := Build(Ethernet{}, src, dst, ProtoTCP, &TCP{SrcPort: sp, DstPort: dp, Flags: st.flags}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := a.Feed(baseTS.Add(time.Duration(i)*time.Millisecond), frame); ok {
			done = append(done, s)
		}
	}
	if len(done) != 1 || done[0].Packets != len(steps) || a.nextID != 1 || a.Pending() != 0 {
		t.Fatalf("completed %+v with %d sessions started and %d pending; want one session of %d packets",
			done, a.nextID, a.Pending(), len(steps))
	}
}

// A non-first IPv4 fragment carries no transport header: it is ignored,
// not parsed as TCP/UDP into a phantom flow. A first fragment (more
// fragments set, offset zero) does carry the header and is tracked.
func TestNonFirstFragmentIgnored(t *testing.T) {
	withFragWord := func(word uint16) []byte {
		frame := udpFrame(t, 0x0a000001, 0x0a010001, 5000, 53)
		ip := frame[EthernetHeaderLen:]
		binary.BigEndian.PutUint16(ip[6:8], word)
		binary.BigEndian.PutUint16(ip[10:12], 0)
		binary.BigEndian.PutUint16(ip[10:12], internetChecksum(ip[:IPv4HeaderLen], 0))
		return frame
	}
	later := withFragWord(185) // offset 185 × 8 bytes, last fragment
	var d Decoder
	if err := d.Decode(later); !errors.Is(err, ErrFragment) {
		t.Fatalf("Decode of a non-first fragment: %v, want ErrFragment", err)
	}
	a := NewAssembler(time.Minute, 1)
	a.Feed(baseTS, later)
	if a.Ignored != 1 || a.Decoded != 0 || a.Pending() != 0 {
		t.Fatalf("decoded %d ignored %d pending %d, want 0, 1, 0", a.Decoded, a.Ignored, a.Pending())
	}
	a.Feed(baseTS, withFragWord(0x2000)) // more fragments, offset zero
	if a.Decoded != 1 || a.Pending() != 1 || a.Malformed != 0 {
		t.Fatalf("first fragment: decoded %d pending %d malformed %d, want 1, 1, 0", a.Decoded, a.Pending(), a.Malformed)
	}
}

// The ingest fast path allocates nothing: reading a frame on a warmed
// Reader, and feeding a frame of an already-open flow.
func TestIngestAllocFree(t *testing.T) {
	capture := genCapture(t, 200, 13, time.Second)
	pr := NewReader(bytes.NewReader(capture))
	if _, _, err := pr.ReadPacket(); err != nil { // warm: global header consumed, buffer filled
		t.Fatal(err)
	}
	const reads = 2000
	if n := len(readAll(t, bytes.NewReader(capture))); n < reads+2 {
		t.Fatalf("capture has %d frames, need %d", n, reads+2)
	}
	if n := testing.AllocsPerRun(reads, func() {
		if _, _, err := pr.ReadPacket(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadPacket allocates %v per frame, want 0", n)
	}

	a := NewAssembler(time.Minute, 1)
	var flows [16][]byte
	for i := range flows {
		flows[i] = udpFrame(t, 0x0a000001+uint32(i), 0x0a010001, 5000, 53)
		a.Feed(baseTS, flows[i])
	}
	i, ts := 0, baseTS
	if n := testing.AllocsPerRun(5000, func() {
		ts = ts.Add(time.Millisecond)
		a.Feed(ts, flows[i%len(flows)])
		i++
	}); n != 0 {
		t.Fatalf("Feed on an open flow allocates %v per frame, want 0", n)
	}
	if a.Pending() != len(flows) || a.Malformed != 0 {
		t.Fatalf("pending %d malformed %d, want %d and 0", a.Pending(), a.Malformed, len(flows))
	}
}

// sortFrames must keep the order sort.SliceStable gave: the capture for a
// fixed seed is byte-identical to the one written before the switch to
// slices.SortStableFunc (the hash was taken at that commit; this capture
// has 180 equal-timestamp neighbours, so stability is exercised).
func TestCaptureBytesPinned(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 200, Seed: 17})
	var buf bytes.Buffer
	if _, err := WriteSessionsPcap(NewWriter(&buf), sessions, baseTS, 50*time.Millisecond, 23); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "6704bf82a4d01a590e905f5bbd9845511ed445278c51b2a7a73c32836ac9bebf"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("capture sha256 = %s, want %s", got, want)
	}
}

// FuzzReader: arbitrary bytes never panic the Reader, and every frame it
// returns is exactly the bytes its record header announces, whatever the
// source's chunking.
func FuzzReader(f *testing.F) {
	capture := genCapture(f, 20, 2, time.Second)
	f.Add(capture)
	f.Add(capture[:len(capture)/2+7])
	f.Add(tinyCapture(f))
	f.Add([]byte("not a pcap file"))
	f.Fuzz(func(t *testing.T, data []byte) {
		drain := func(src io.Reader) (n int, last error) {
			pr := NewReader(src)
			off := pcapGlobalBytes
			for {
				_, frame, err := pr.ReadPacket()
				if err != nil {
					return n, err
				}
				capLen := int(pr.u32(data[off+8 : off+12]))
				body := off + pcapRecordBytes
				if len(frame) != capLen || !bytes.Equal(frame, data[body:body+capLen]) {
					t.Fatalf("frame %d: %d bytes, record at offset %d announces %d", n, len(frame), off, capLen)
				}
				off = body + capLen
				n++
			}
		}
		n1, err1 := drain(bytes.NewReader(data))
		n2, err2 := drain(iotest.OneByteReader(bytes.NewReader(data)))
		if n1 != n2 || (err1 == io.EOF) != (err2 == io.EOF) {
			t.Fatalf("plain read: %d frames then %v; one-byte read: %d frames then %v", n1, err1, n2, err2)
		}
	})
}

// FuzzAssemble: arbitrary frame sequences (a fuzzed capture, timestamps
// included) keep the assembler's books balanced — every frame lands in
// exactly one counter and every session started is either completed or
// still pending — and Flush empties it. classify sorts every frame as
// Decode does, and StreamSessions, inline and pipelined, emits what the
// frame-by-frame loop does over the same bytes and stops where it stops.
func FuzzAssemble(f *testing.F) {
	f.Add(genCapture(f, 20, 2, time.Second))
	f.Add(tinyCapture(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		pr := NewReader(bytes.NewReader(data))
		a := NewAssembler(time.Minute, 1)
		fed, completed := 0, 0
		for {
			ts, frame, err := pr.ReadPacket()
			if err != nil {
				break
			}
			fed++
			checkClassify(t, ts, frame)
			if _, done := a.Feed(ts, frame); done {
				completed++
			}
			if a.Decoded+a.Malformed+a.Ignored != fed {
				t.Fatalf("decoded %d + malformed %d + ignored %d != %d frames fed", a.Decoded, a.Malformed, a.Ignored, fed)
			}
			if a.Pending()+completed != a.nextID {
				t.Fatalf("pending %d + completed %d != %d sessions started", a.Pending(), completed, a.nextID)
			}
		}
		pending := a.Pending()
		if rest := a.Flush(); len(rest) != pending || a.Pending() != 0 {
			t.Fatalf("flushed %d of %d pending, %d left", len(rest), pending, a.Pending())
		}
		compareStreams(t, capturedSource("fuzzed capture", data))
	})
}

// BenchmarkIngest is the front half alone — read, decode, reassemble — over
// a 2000-session capture; ns/op divided by the frame count is what
// cmd/perf reports as packet.decode_assemble_ns_per_packet.
func BenchmarkIngest(b *testing.B) {
	capture := genCapture(b, 2000, 1, time.Minute)
	frames := len(readAll(b, bytes.NewReader(capture)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadSessions(NewReader(bytes.NewReader(capture)), 5*time.Minute, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(frames), "ns/frame")
}
