package packet

import (
	"cmp"
	"encoding/binary"
	"slices"
	"time"

	"nwdeploy/internal/conntrack"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// Assembler rebuilds session-level records from a packet stream — the
// inverse of Expand, and the front half of what a real NIDS node does
// before the engine sees connection events. The conntrack table is its
// only flow table: canonicalization, idle expiry and peak accounting come
// from there, and each record's Slot points at the flow's reassembly state
// in a pooled slice, so a frame costs one lookup and, for a flow already
// open, no allocation. It holds track's state only; classify keeps none,
// so the helper goroutine that classifies writes no cache line that track
// touches per frame. (With a Decoder inside the assembler, that false
// sharing made the pipelined ingest slower than the serial loop.)
type Assembler struct {
	table  *conntrack.Table
	nextID int

	// flows is the slot pool: a conntrack record's Slot is index+1 into it.
	// A slot with packets == 0 is free and listed in free. A slot whose
	// record expired or was evicted mid-flow is referenced by nobody and
	// stays open until Flush emits it.
	flows []pending
	free  []int32

	// Decoded counts frames that reached the flow table. Malformed counts
	// frames that claim to be IPv4 TCP/UDP but are truncated, inconsistent
	// or fail the IPv4 header checksum. Ignored counts well-formed frames
	// of protocols the assembler does not track (ARP, IPv6, ICMP, ...).
	// Every frame fed lands in exactly one of the three.
	Decoded, Malformed, Ignored int
}

type pending struct {
	id      int
	tuple   hashing.FiveTuple // orientation of the first packet seen
	packets int               // zero marks a free slot
	bytes   int
	fin     uint8 // finFwd | finRev: the directions that have sent a FIN
	isTCP   bool
}

// FIN bits, relative to the orientation of a flow's first packet. One bit
// per direction, so a retransmitted FIN does not close the other side.
const (
	finFwd = 1 << iota
	finRev
	finBoth = finFwd | finRev
)

// NewAssembler builds an assembler with the given idle timeout.
func NewAssembler(idle time.Duration, hashKey uint32) *Assembler {
	return &Assembler{
		table: conntrack.New(conntrack.Config{
			IdleTimeout: idle,
			HashKey:     hashKey,
		}),
	}
}

// frameKind is what classify made of a frame: the one of the assembler's
// three counters it lands in.
type frameKind uint8

const (
	frameDecoded frameKind = iota
	frameIgnored
	frameMalformed
)

// frameRec is classify's record of one frame: everything track reads, so
// the frame itself may be overwritten as soon as it is classified.
type frameRec struct {
	ts    time.Time
	ft    hashing.FiveTuple // set when kind is frameDecoded
	size  int32             // frame length
	flags uint8             // TCP flags; zero for UDP
	kind  frameKind
}

// classify is the pure half of a frame's step: it parses the headers track
// needs, checks the IPv4 header checksum and writes the frame's record. It
// reads no assembler state, so it runs ahead of track on another goroutine
// (StreamSessions). It sorts frames as Decode does — malformed where Decode
// fails or the checksum does, ignored where Decode reports ErrNotIPv4,
// ErrFragment or ErrUnknownProto — but reads only the fields it records, in
// about half Decode's time; the tests hold it to Decode frame by frame.
func (rec *frameRec) classify(ts time.Time, frame []byte) {
	rec.ts, rec.size, rec.flags, rec.kind = ts, int32(len(frame)), 0, frameMalformed
	if len(frame) < EthernetHeaderLen {
		return
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		rec.kind = frameIgnored
		return
	}
	ip := frame[EthernetHeaderLen:]
	if len(ip) < IPv4HeaderLen || ip[0]>>4 != 4 {
		return
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return
	}
	if binary.BigEndian.Uint16(ip[6:8])&0x1fff != 0 {
		rec.kind = frameIgnored // a non-first fragment
		return
	}
	l4 := ip[ihl:]
	if tl := int(binary.BigEndian.Uint16(ip[2:4])); tl >= ihl && tl <= len(ip) {
		l4 = ip[ihl:tl]
	}
	proto := ip[9]
	switch proto {
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return
		}
		if off := int(l4[12]>>4) * 4; off < TCPHeaderLen || off > len(l4) {
			return
		}
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return
		}
	default:
		rec.kind = frameIgnored
		return
	}
	if internetChecksum(ip[:ihl], 0) != 0 {
		return
	}
	// Field by field into the record: a tuple built in a local and copied
	// whole is one wide load over narrow stores, which stalls store
	// forwarding on every frame.
	ft := &rec.ft
	ft.SrcIP, ft.DstIP, ft.Proto = binary.BigEndian.Uint32(ip[12:16]), binary.BigEndian.Uint32(ip[16:20]), proto
	ft.SrcPort, ft.DstPort = binary.BigEndian.Uint16(l4[0:2]), binary.BigEndian.Uint16(l4[2:4])
	if proto == ProtoTCP {
		rec.flags = l4[13]
	}
	rec.kind = frameDecoded
}

// track is the stateful half of a frame's step, run in frame order: it
// counts the frame and, for a decoded one, updates its flow. It returns
// the slot of the session this frame completed (TCP close observed in both
// directions), for the caller to finalize, else zero; no session is copied
// per frame.
//
// A flow is one conntrack record's lifetime: when the record idle-expires
// (or is evicted) while the flow is still open, the next frame of that
// tuple starts a new session with a new ID and the orphaned first half
// waits for Flush.
func (a *Assembler) track(rec *frameRec) int32 {
	switch rec.kind {
	case frameIgnored:
		a.Ignored++
		return 0
	case frameMalformed:
		a.Malformed++
		return 0
	}
	a.Decoded++
	c, _ := a.table.Update(rec.ft, rec.ts, 1, int(rec.size))
	if c.Slot == 0 {
		c.Slot = a.open(rec.ft)
	}
	p := &a.flows[c.Slot-1]
	p.packets++
	p.bytes += int(rec.size)
	if !p.isTCP {
		return 0
	}
	switch flags := rec.flags; {
	case flags&FlagFIN != 0:
		if rec.ft == p.tuple {
			p.fin |= finFwd
		} else {
			p.fin |= finRev
		}
	case p.fin == finBoth && flags&FlagACK != 0:
		// Final ACK after both directions' FINs: the session is complete.
		// The record stays in the table until it idles out; a later frame
		// of the tuple finds Slot zero and starts a new session.
		slot := c.Slot
		c.Slot = 0
		return slot
	}
	return 0
}

// open takes a slot for a new flow whose first packet carries ft and
// returns the value to store in the record's Slot.
func (a *Assembler) open(ft hashing.FiveTuple) int32 {
	var slot int32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.flows = append(a.flows, pending{})
		slot = int32(len(a.flows))
	}
	a.flows[slot-1] = pending{id: a.nextID, tuple: ft, isTCP: ft.Proto == ProtoTCP}
	a.nextID++
	return slot
}

// finalize writes a slot's pending record into s and recycles the slot.
func (a *Assembler) finalize(slot int32, s *traffic.Session) {
	p := &a.flows[slot-1]
	*s = traffic.Session{
		ID:      p.id,
		Src:     traffic.NodeOfIP(p.tuple.SrcIP),
		Dst:     traffic.NodeOfIP(p.tuple.DstIP),
		Tuple:   p.tuple,
		Packets: p.packets,
		Bytes:   p.bytes,
	}
	*p = pending{}
	a.free = append(a.free, slot)
}

// Flush returns every still-pending session (UDP exchanges, TCP flows
// without observed teardown, and flows orphaned by idle expiry), as a
// trace-end or idle-timeout pass would, in first-packet order. The
// assembler stays usable: no record keeps a flushed slot, so a frame fed
// afterwards starts a fresh session.
func (a *Assembler) Flush() []traffic.Session {
	out := make([]traffic.Session, a.Pending())
	n := 0
	for i := range a.flows {
		p := &a.flows[i]
		if p.packets == 0 {
			continue
		}
		slot := int32(i + 1)
		if c, ok := a.table.Lookup(p.tuple); ok && c.Slot == slot {
			c.Slot = 0
		}
		a.finalize(slot, &out[n])
		n++
	}
	slices.SortFunc(out, func(x, y traffic.Session) int { return cmp.Compare(x.ID, y.ID) })
	return out
}

// Pending reports sessions still being assembled.
func (a *Assembler) Pending() int { return len(a.flows) - len(a.free) }
