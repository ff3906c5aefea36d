package packet

import (
	"cmp"
	"errors"
	"io"
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
// open, no allocation.
type Assembler struct {
	table  *conntrack.Table
	dec    Decoder
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

// feed consumes one frame, which it does not retain. It returns the slot
// of the session this frame completed (TCP close observed in both
// directions), for the caller to finalize, else zero; no session is copied
// per frame.
//
// A flow is one conntrack record's lifetime: when the record idle-expires
// (or is evicted) while the flow is still open, the next frame of that
// tuple starts a new session with a new ID and the orphaned first half
// waits for Flush.
func (a *Assembler) feed(ts time.Time, frame []byte) int32 {
	if err := a.dec.Decode(frame); err != nil {
		if errors.Is(err, ErrNotIPv4) || errors.Is(err, ErrUnknownProto) || errors.Is(err, ErrFragment) {
			a.Ignored++
		} else {
			a.Malformed++
		}
		return 0
	}
	if !a.dec.IP.ChecksumValid() {
		a.Malformed++
		return 0
	}
	a.Decoded++
	var ft hashing.FiveTuple
	a.dec.tuple(&ft)
	c, _ := a.table.Update(ft, ts, 1, len(frame))
	if c.Slot == 0 {
		c.Slot = a.open(ft)
	}
	p := &a.flows[c.Slot-1]
	p.packets++
	p.bytes += len(frame)
	if !p.isTCP {
		return 0
	}
	switch flags := a.dec.TCP.Flags; {
	case flags&FlagFIN != 0:
		if ft == p.tuple {
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

// StreamSessions drains a pcap stream through a fresh assembler, handing
// emit each session as it completes and then the flushed remainder. The
// pointer is valid only for the duration of the call.
func StreamSessions(r *Reader, idle time.Duration, hashKey uint32, emit func(*traffic.Session)) (*Assembler, error) {
	a := NewAssembler(idle, hashKey)
	var s traffic.Session // one variable for the whole stream: emit makes it escape
	for {
		ts, frame, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if slot := a.feed(ts, frame); slot != 0 {
			a.finalize(slot, &s)
			emit(&s)
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
