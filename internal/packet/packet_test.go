package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nwdeploy/internal/conntrack"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

var baseTS = time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)

// canonicalKey mirrors the conntrack canonical ordering.
func canonicalKey(ft hashing.FiveTuple) hashing.FiveTuple {
	if ft.SrcIP > ft.DstIP || (ft.SrcIP == ft.DstIP && ft.SrcPort > ft.DstPort) {
		return ft.Reverse()
	}
	return ft
}

func buildTCPFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame, err := Build(
		Ethernet{SrcMAC: macFor(0x0a000001), DstMAC: macFor(0x0a000002)},
		0x0a000001, 0x0a000002, ProtoTCP,
		&TCP{SrcPort: 1234, DstPort: 80, Seq: 42, Ack: 7, Flags: FlagACK | FlagPSH, Window: 65535},
		nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n")
	frame := buildTCPFrame(t, payload)

	var d Decoder
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if len(d.Decoded) != 4 || d.Decoded[2] != LayerTCP || d.Decoded[3] != LayerPayload {
		t.Fatalf("decoded layers = %v", d.Decoded)
	}
	if d.IP.SrcIP != 0x0a000001 || d.IP.DstIP != 0x0a000002 || d.IP.Protocol != ProtoTCP {
		t.Fatalf("IP header wrong: %+v", d.IP)
	}
	if !d.IP.ChecksumValid() {
		t.Fatal("IPv4 checksum did not verify")
	}
	if d.TCP.SrcPort != 1234 || d.TCP.DstPort != 80 || d.TCP.Seq != 42 || d.TCP.Ack != 7 {
		t.Fatalf("TCP header wrong: %+v", d.TCP)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatalf("payload mismatch: %q", d.Payload)
	}
	// Transport checksum verifies over header+payload.
	l4 := frame[EthernetHeaderLen+IPv4HeaderLen:]
	if !VerifyTransportChecksum(d.IP.SrcIP, d.IP.DstIP, ProtoTCP, l4) {
		t.Fatal("TCP checksum did not verify")
	}
	// Corrupting a payload byte must break the transport checksum.
	l4[len(l4)-1] ^= 0xff
	if VerifyTransportChecksum(d.IP.SrcIP, d.IP.DstIP, ProtoTCP, l4) {
		t.Fatal("corrupted payload passed checksum")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	frame, err := Build(
		Ethernet{SrcMAC: macFor(1), DstMAC: macFor(2)},
		0xc0a80101, 0xc0a80102, ProtoUDP,
		nil, &UDP{SrcPort: 5353, DstPort: 53}, payload)
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if d.UDP.SrcPort != 5353 || d.UDP.DstPort != 53 {
		t.Fatalf("UDP ports wrong: %+v", d.UDP)
	}
	if int(d.UDP.Length) != UDPHeaderLen+len(payload) {
		t.Fatalf("UDP length = %d", d.UDP.Length)
	}
	l4 := frame[EthernetHeaderLen+IPv4HeaderLen:]
	if !VerifyTransportChecksum(0xc0a80101, 0xc0a80102, ProtoUDP, l4) {
		t.Fatal("UDP checksum did not verify")
	}
	ft := d.FiveTuple()
	want := hashing.FiveTuple{SrcIP: 0xc0a80101, DstIP: 0xc0a80102, SrcPort: 5353, DstPort: 53, Proto: 17}
	if ft != want {
		t.Fatalf("five-tuple = %+v", ft)
	}
}

func TestDecodeErrors(t *testing.T) {
	var d Decoder
	if err := d.Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
	// Non-IPv4 ethertype.
	frame := buildTCPFrame(t, nil)
	frame[12], frame[13] = 0x86, 0xdd // IPv6
	if err := d.Decode(frame); err != ErrNotIPv4 {
		t.Fatalf("err = %v, want ErrNotIPv4", err)
	}
	// Unknown transport.
	frame = buildTCPFrame(t, nil)
	frame[EthernetHeaderLen+9] = 47 // GRE
	if err := d.Decode(frame); err != ErrUnknownProto {
		t.Fatalf("err = %v, want ErrUnknownProto", err)
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of {0x0001, 0xf203, 0xf4f5, 0xf6f7}
	// is the complement of 0xddf2 (with carry folding).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(data, 0); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

// refChecksum is the two-bytes-per-step RFC 1071 sum addToSum replaced, with
// a 64-bit accumulator so that no initial sum wraps it: the reference the
// eight-byte loop is held to.
func refChecksum(initial uint32, data []byte) uint16 {
	sum := uint64(initial)
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestQuickAddToSumMatchesReference: for random data of 0–1600 bytes (odd
// lengths included) and an arbitrary initial sum, the eight-byte addToSum
// yields the reference's checksum — alone, and chained after an even-length
// prefix as the transport checksums chain header and payload.
func TestQuickAddToSumMatchesReference(t *testing.T) {
	f := func(initial uint32, seed int64, n, cut uint16) bool {
		data := make([]byte, int(n)%1601)
		rand.New(rand.NewSource(seed)).Read(data)
		want := refChecksum(initial, data)
		split := (int(cut) % (len(data) + 1)) &^ 1
		return finishSum(addToSum(initial, data)) == want &&
			finishSum(addToSum(addToSum(initial, data[:split]), data[split:])) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// All-zero data keeps the one's-complement zero apart from 0xffff.
	for _, initial := range []uint32{0, 0xffff, 0xffffffff} {
		data := make([]byte, 40)
		if got, want := finishSum(addToSum(initial, data)), refChecksum(initial, data); got != want {
			t.Fatalf("initial %#x over zeros: %#x, want %#x", initial, got, want)
		}
	}
}

func TestExpandTCPSessionShape(t *testing.T) {
	s := traffic.Session{
		ID: 1, Src: 0, Dst: 3,
		Tuple:   hashing.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a030001, SrcPort: 40000, DstPort: 80, Proto: 6},
		Packets: 15, Bytes: 9000,
	}
	frames, err := Expand(s, baseTS, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 15 {
		t.Fatalf("expanded to %d frames, want 15", len(frames))
	}
	var d Decoder
	// First three frames form the handshake.
	wantFlags := []uint8{FlagSYN, FlagSYN | FlagACK, FlagACK}
	for i, wf := range wantFlags {
		if err := d.Decode(frames[i].Data); err != nil {
			t.Fatal(err)
		}
		if d.TCP.Flags != wf {
			t.Fatalf("frame %d flags = %#x, want %#x", i, d.TCP.Flags, wf)
		}
	}
	// Last frame is the final ACK; both FINs occur before it.
	fins := 0
	for _, f := range frames {
		if err := d.Decode(f.Data); err != nil {
			t.Fatal(err)
		}
		if d.TCP.Flags&FlagFIN != 0 {
			fins++
		}
	}
	if fins != 2 {
		t.Fatalf("saw %d FINs, want 2", fins)
	}
	// Timestamps are strictly increasing.
	for i := 1; i < len(frames); i++ {
		if !frames[i].TS.After(frames[i-1].TS) {
			t.Fatalf("timestamps not increasing at %d", i)
		}
	}
}

func TestPcapRoundTrip(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 60, Seed: 3})
	var buf bytes.Buffer
	n, err := WriteSessionsPcap(NewWriter(&buf), sessions, baseTS, time.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("wrote no packets")
	}
	// File starts with the classic magic.
	if buf.Len() < pcapGlobalBytes || buf.Bytes()[0] != 0xd4 || buf.Bytes()[1] != 0xc3 {
		t.Fatalf("pcap header bytes wrong: % x", buf.Bytes()[:4])
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	count := 0
	var last time.Time
	var d Decoder
	for {
		ts, frame, err := r.ReadPacket()
		if err != nil {
			break
		}
		count++
		if ts.Before(last) {
			t.Fatal("pcap stream not chronological")
		}
		last = ts
		if err := d.Decode(frame); err != nil {
			t.Fatalf("packet %d undecodable: %v", count, err)
		}
	}
	if count != n {
		t.Fatalf("read %d packets, wrote %d", count, n)
	}
}

func TestPcapReaderRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("this is not a pcap file at all....")))
	if _, _, err := r.ReadPacket(); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestAssemblerRecoversSessions: expand -> pcap -> assemble must recover
// every session with matching endpoints, packet and byte counts.
func TestAssemblerRecoversSessions(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 120, Seed: 11})
	var buf bytes.Buffer
	if _, err := WriteSessionsPcap(NewWriter(&buf), sessions, baseTS, 0, 5); err != nil {
		t.Fatal(err)
	}
	got, asm, err := ReadSessions(NewReader(bytes.NewReader(buf.Bytes())), time.Minute, 9)
	if err != nil {
		t.Fatal(err)
	}
	if asm.Malformed != 0 {
		t.Fatalf("%d malformed frames", asm.Malformed)
	}
	if len(got) != len(sessions) {
		t.Fatalf("assembled %d sessions, want %d", len(got), len(sessions))
	}
	// Index originals by canonical tuple.
	wantBy := map[hashing.FiveTuple]traffic.Session{}
	for _, s := range sessions {
		wantBy[canonicalKey(s.Tuple)] = s
	}
	for _, g := range got {
		w, ok := wantBy[canonicalKey(g.Tuple)]
		if !ok {
			t.Fatalf("assembled unknown session %v", g.Tuple)
		}
		if g.Src != w.Src || g.Dst != w.Dst {
			// Orientation: assembler sees the client's SYN (or first UDP
			// request) first, so endpoints must match exactly.
			t.Fatalf("session endpoints %d->%d, want %d->%d", g.Src, g.Dst, w.Src, w.Dst)
		}
		// The expansion may clamp the packet count upward for tiny
		// sessions (minimum handshake+teardown), never downward for TCP.
		if w.Tuple.Proto == 6 && g.Packets < 7 {
			t.Fatalf("TCP session with %d packets", g.Packets)
		}
	}
	if asm.TableStats().PeakEntries == 0 {
		t.Fatal("conn table saw nothing")
	}
}

// TestQuickDecoderNeverPanics: arbitrary bytes must produce errors, not
// panics.
func TestQuickDecoderNeverPanics(t *testing.T) {
	var d Decoder
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("decoder panicked on % x", data)
			}
		}()
		_ = d.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBuildDecodeIdentity: arbitrary tuples and payload sizes survive
// a build/decode round trip with verified checksums.
func TestQuickBuildDecodeIdentity(t *testing.T) {
	var d Decoder
	f := func(src, dst uint32, sp, dp uint16, n uint8, udp bool) bool {
		payload := make([]byte, int(n))
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		proto := uint8(ProtoTCP)
		var tcp *TCP
		var u *UDP
		if udp {
			proto = ProtoUDP
			u = &UDP{SrcPort: sp, DstPort: dp}
		} else {
			tcp = &TCP{SrcPort: sp, DstPort: dp, Seq: 1, Flags: FlagACK}
		}
		frame, err := Build(Ethernet{}, src, dst, proto, tcp, u, payload)
		if err != nil {
			return false
		}
		if err := d.Decode(frame); err != nil {
			return false
		}
		ft := d.FiveTuple()
		if ft.SrcIP != src || ft.DstIP != dst || ft.SrcPort != sp || ft.DstPort != dp {
			return false
		}
		l4 := frame[EthernetHeaderLen+IPv4HeaderLen:]
		return d.IP.ChecksumValid() && VerifyTransportChecksum(src, dst, proto, l4) &&
			bytes.Equal(d.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecode(b *testing.B) {
	payload := make([]byte, 512)
	frame, err := Build(Ethernet{}, 1, 2, ProtoTCP, &TCP{SrcPort: 1, DstPort: 2, Flags: FlagACK}, nil, payload)
	if err != nil {
		b.Fatal(err)
	}
	var d Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// Feed steps an assembler by one frame, both stages in turn, for tests
// that drive it frame by frame: it returns the completed session, if this
// frame finished one.
func (a *Assembler) Feed(ts time.Time, frame []byte) (traffic.Session, bool) {
	var s traffic.Session
	var rec frameRec
	rec.classify(ts, frame)
	slot := a.track(&rec)
	if slot == 0 {
		return s, false
	}
	a.finalize(slot, &s)
	return s, true
}

// ChecksumValid reports whether the decoded header checksum verified. The
// ingest path checks the checksum in classify, so only the tests read it.
func (ip *IPv4) ChecksumValid() bool { return ip.checksumValid }

// TableStats exposes the underlying connection table's accounting (peak
// concurrent connections = the max-resident-memory analogue).
func (a *Assembler) TableStats() conntrack.Stats { return a.table.Stats() }

// VerifyTransportChecksum recomputes a decoded packet's TCP/UDP checksum
// over the given transport header+payload bytes and reports whether it
// verifies (sums to zero including the stored checksum).
func VerifyTransportChecksum(srcIP, dstIP uint32, proto uint8, l4 []byte) bool {
	sum := pseudoHeaderSum(srcIP, dstIP, proto, len(l4))
	sum = addToSum(sum, l4)
	return finishSum(sum) == 0
}
