package packet

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// Expand turns a synthetic session into its on-the-wire packet sequence:
// for TCP a three-way handshake, alternating data segments until the
// session's packet budget is spent, and a FIN/ACK teardown; for UDP a
// request/response exchange. Frame payload sizes follow the session's byte
// budget. Timestamps advance from start with small deterministic jitter.
func Expand(s traffic.Session, start time.Time, rng *rand.Rand) ([]Frame, error) {
	switch s.Tuple.Proto {
	case ProtoTCP:
		return expandTCP(s, start, rng)
	case ProtoUDP:
		return expandUDP(s, start, rng)
	default:
		return nil, fmt.Errorf("packet: cannot expand protocol %d", s.Tuple.Proto)
	}
}

// Frame is one serialized packet with its capture timestamp.
type Frame struct {
	TS   time.Time
	Data []byte
}

// macFor derives a stable synthetic MAC from an IPv4 address.
func macFor(ip uint32) [6]byte {
	return [6]byte{0x02, 0x00, byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
}

// payloadSizes splits total payload bytes across n data packets.
func payloadSizes(total, n int, rng *rand.Rand) []int {
	if n <= 0 {
		return nil
	}
	sizes := make([]int, n)
	base := total / n
	rem := total - base*n
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
		if sizes[i] > 1460 {
			sizes[i] = 1460 // one MSS
		}
	}
	_ = rng
	return sizes
}

func expandTCP(s traffic.Session, start time.Time, rng *rand.Rand) ([]Frame, error) {
	fwd := s.Tuple
	rev := fwd.Reverse()
	ethFwd := Ethernet{SrcMAC: macFor(fwd.SrcIP), DstMAC: macFor(fwd.DstIP)}
	ethRev := Ethernet{SrcMAC: macFor(rev.SrcIP), DstMAC: macFor(rev.DstIP)}

	seqC := uint32(1000 + rng.Intn(1<<20)) // client ISN
	seqS := uint32(2000 + rng.Intn(1<<20)) // server ISN

	dataPkts := s.Packets - 7 // handshake (3) + fin/ack/fin/ack (4)
	if dataPkts < 1 {
		dataPkts = 1
	}
	payload := s.Bytes - s.Packets*40 // rough header share
	if payload < dataPkts {
		payload = dataPkts
	}
	sizes := payloadSizes(payload, dataPkts, rng)

	ts := start
	step := func() time.Time {
		ts = ts.Add(time.Duration(200+rng.Intn(800)) * time.Microsecond)
		return ts
	}
	var frames []Frame
	emit := func(dir bool, t *TCP, pl []byte) error {
		var frame []byte
		var err error
		if dir {
			frame, err = Build(ethFwd, fwd.SrcIP, fwd.DstIP, ProtoTCP, t, nil, pl)
		} else {
			frame, err = Build(ethRev, rev.SrcIP, rev.DstIP, ProtoTCP, t, nil, pl)
		}
		if err != nil {
			return err
		}
		frames = append(frames, Frame{TS: step(), Data: frame})
		return nil
	}

	// Handshake.
	if err := emit(true, &TCP{SrcPort: fwd.SrcPort, DstPort: fwd.DstPort, Seq: seqC, Flags: FlagSYN, Window: 65535}, nil); err != nil {
		return nil, err
	}
	seqC++
	if err := emit(false, &TCP{SrcPort: rev.SrcPort, DstPort: rev.DstPort, Seq: seqS, Ack: seqC, Flags: FlagSYN | FlagACK, Window: 65535}, nil); err != nil {
		return nil, err
	}
	seqS++
	if err := emit(true, &TCP{SrcPort: fwd.SrcPort, DstPort: fwd.DstPort, Seq: seqC, Ack: seqS, Flags: FlagACK, Window: 65535}, nil); err != nil {
		return nil, err
	}

	// Data: client and server alternate, client first.
	buf := make([]byte, 1460)
	for i, sz := range sizes {
		for b := range buf[:sz] {
			buf[b] = byte(i + b)
		}
		fromClient := i%2 == 0
		if fromClient {
			if err := emit(true, &TCP{SrcPort: fwd.SrcPort, DstPort: fwd.DstPort, Seq: seqC, Ack: seqS, Flags: FlagACK | FlagPSH, Window: 65535}, buf[:sz]); err != nil {
				return nil, err
			}
			seqC += uint32(sz)
		} else {
			if err := emit(false, &TCP{SrcPort: rev.SrcPort, DstPort: rev.DstPort, Seq: seqS, Ack: seqC, Flags: FlagACK | FlagPSH, Window: 65535}, buf[:sz]); err != nil {
				return nil, err
			}
			seqS += uint32(sz)
		}
	}

	// Teardown: FIN from client, ACK, FIN from server, ACK.
	if err := emit(true, &TCP{SrcPort: fwd.SrcPort, DstPort: fwd.DstPort, Seq: seqC, Ack: seqS, Flags: FlagFIN | FlagACK, Window: 65535}, nil); err != nil {
		return nil, err
	}
	seqC++
	if err := emit(false, &TCP{SrcPort: rev.SrcPort, DstPort: rev.DstPort, Seq: seqS, Ack: seqC, Flags: FlagACK, Window: 65535}, nil); err != nil {
		return nil, err
	}
	if err := emit(false, &TCP{SrcPort: rev.SrcPort, DstPort: rev.DstPort, Seq: seqS, Ack: seqC, Flags: FlagFIN | FlagACK, Window: 65535}, nil); err != nil {
		return nil, err
	}
	seqS++
	if err := emit(true, &TCP{SrcPort: fwd.SrcPort, DstPort: fwd.DstPort, Seq: seqC, Ack: seqS, Flags: FlagACK, Window: 65535}, nil); err != nil {
		return nil, err
	}
	return frames, nil
}

func expandUDP(s traffic.Session, start time.Time, rng *rand.Rand) ([]Frame, error) {
	fwd := s.Tuple
	rev := fwd.Reverse()
	ethFwd := Ethernet{SrcMAC: macFor(fwd.SrcIP), DstMAC: macFor(fwd.DstIP)}
	ethRev := Ethernet{SrcMAC: macFor(rev.SrcIP), DstMAC: macFor(rev.DstIP)}

	n := s.Packets
	if n < 2 {
		n = 2
	}
	payload := s.Bytes - n*28
	if payload < n {
		payload = n
	}
	sizes := payloadSizes(payload, n, rng)

	ts := start
	var frames []Frame
	buf := make([]byte, 1460)
	for i, sz := range sizes {
		for b := range buf[:sz] {
			buf[b] = byte(i ^ b)
		}
		ts = ts.Add(time.Duration(300+rng.Intn(1200)) * time.Microsecond)
		var frame []byte
		var err error
		if i%2 == 0 {
			frame, err = Build(ethFwd, fwd.SrcIP, fwd.DstIP, ProtoUDP,
				nil, &UDP{SrcPort: fwd.SrcPort, DstPort: fwd.DstPort}, buf[:sz])
		} else {
			frame, err = Build(ethRev, rev.SrcIP, rev.DstIP, ProtoUDP,
				nil, &UDP{SrcPort: rev.SrcPort, DstPort: rev.DstPort}, buf[:sz])
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, Frame{TS: ts, Data: frame})
	}
	return frames, nil
}

// WriteSessionsPcap expands every session and writes the interleaved
// packet stream (ordered by timestamp across sessions, with session starts
// spread over the given duration) as a pcap capture. It returns the number
// of packets written.
func WriteSessionsPcap(w *Writer, sessions []traffic.Session, start time.Time, spread time.Duration, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	var all []Frame
	for _, s := range sessions {
		off := time.Duration(0)
		if spread > 0 {
			off = time.Duration(rng.Int63n(int64(spread)))
		}
		frames, err := Expand(s, start.Add(off), rng)
		if err != nil {
			return 0, fmt.Errorf("packet: session %d: %w", s.ID, err)
		}
		all = append(all, frames...)
	}
	sortFrames(all)
	for _, f := range all {
		if err := w.WritePacket(f.TS, f.Data); err != nil {
			return 0, err
		}
	}
	return len(all), nil
}

// sortFrames orders frames by timestamp; the capture must be
// chronological for readers that assume monotonic time.
func sortFrames(fs []Frame) {
	slices.SortStableFunc(fs, func(a, b Frame) int { return a.TS.Compare(b.TS) })
}

// FiveTupleOf is a convenience re-export for assembling code that wants
// the flow key without keeping a Decoder.
func FiveTupleOf(frame []byte) (hashing.FiveTuple, error) {
	var d Decoder
	if err := d.Decode(frame); err != nil {
		return hashing.FiveTuple{}, err
	}
	return d.FiveTuple(), nil
}
