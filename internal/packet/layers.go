// Package packet provides the byte-level substrate under the traffic
// generator: Ethernet/IPv4/TCP/UDP encoding and decoding with real
// checksums, a libpcap-compatible trace writer/reader (traces open in
// tcpdump/wireshark), expansion of synthetic sessions into packet
// sequences (TCP handshake, data exchange, teardown), and a session
// assembler that rebuilds sessions from a packet stream.
//
// No per-packet allocation occurs on the ingest fast path — ReadPacket,
// Decode and Feed on a frame of an already-open flow (TestIngestAllocFree
// holds it at zero) — because nothing on it copies:
//
//   - Reader.ReadPacket returns a frame that aliases the Reader's one read
//     buffer, valid until the next ReadPacket;
//   - Decoder.Decode fills preallocated layer values (the DecodingLayerParser
//     style: one Decoder reused across packets), and its Payload aliases
//     the frame it was given;
//   - Assembler.Feed keeps nothing of the frame, and its per-flow state
//     lives in a recycled slot that the flow's conntrack record points at.
//
// A caller that needs a frame or payload past the next read copies it.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nwdeploy/internal/hashing"
)

// EtherType values this package understands.
const (
	EtherTypeIPv4 = 0x0800
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// Header sizes on the wire.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20 // no options
	TCPHeaderLen      = 20 // no options
	UDPHeaderLen      = 8
)

// Ethernet is the link layer.
type Ethernet struct {
	DstMAC, SrcMAC [6]byte
	EtherType      uint16
}

func (e *Ethernet) encode(b []byte) {
	copy(b[0:6], e.DstMAC[:])
	copy(b[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
}

func (e *Ethernet) decode(b []byte) error {
	if len(b) < EthernetHeaderLen {
		return errTruncated("ethernet", EthernetHeaderLen, len(b))
	}
	copy(e.DstMAC[:], b[0:6])
	copy(e.SrcMAC[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return nil
}

// IPv4 is the network layer (no options supported).
type IPv4 struct {
	TOS            uint8
	TotalLength    uint16
	ID             uint16
	TTL            uint8
	Protocol       uint8
	Checksum       uint16
	SrcIP, DstIP   uint32
	checksumValid  bool
	headerLenBytes int
}

func (ip *IPv4) encode(b []byte) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.TotalLength)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], 0x4000) // don't fragment
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0 // checksum placeholder
	binary.BigEndian.PutUint32(b[12:16], ip.SrcIP)
	binary.BigEndian.PutUint32(b[16:20], ip.DstIP)
	ip.Checksum = internetChecksum(b[:IPv4HeaderLen], 0)
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
}

func (ip *IPv4) decode(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return errTruncated("ipv4", IPv4HeaderLen, len(b))
	}
	if b[0]>>4 != 4 {
		return fmt.Errorf("packet: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return fmt.Errorf("packet: bad IPv4 header length %d", ihl)
	}
	ip.headerLenBytes = ihl
	ip.TOS = b[1]
	ip.TotalLength = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	ip.SrcIP = binary.BigEndian.Uint32(b[12:16])
	ip.DstIP = binary.BigEndian.Uint32(b[16:20])
	ip.checksumValid = internetChecksum(b[:ihl], 0) == 0
	return nil
}

// ChecksumValid reports whether the decoded header checksum verified.
func (ip *IPv4) ChecksumValid() bool { return ip.checksumValid }

// TCP is the TCP transport layer (no options supported).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	dataOffsetBytes  int
}

func (t *TCP) encode(b []byte, srcIP, dstIP uint32, payload []byte) {
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = 5 << 4 // data offset 5 words
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	b[16], b[17] = 0, 0 // checksum placeholder
	b[18], b[19] = 0, 0 // urgent pointer
	sum := pseudoHeaderSum(srcIP, dstIP, ProtoTCP, TCPHeaderLen+len(payload))
	sum = addToSum(sum, b[:TCPHeaderLen])
	sum = addToSum(sum, payload)
	t.Checksum = finishSum(sum)
	binary.BigEndian.PutUint16(b[16:18], t.Checksum)
}

func (t *TCP) decode(b []byte) error {
	if len(b) < TCPHeaderLen {
		return errTruncated("tcp", TCPHeaderLen, len(b))
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.dataOffsetBytes = int(b[12]>>4) * 4
	if t.dataOffsetBytes < TCPHeaderLen || t.dataOffsetBytes > len(b) {
		return fmt.Errorf("packet: bad TCP data offset %d", t.dataOffsetBytes)
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	return nil
}

// UDP is the UDP transport layer.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

func (u *UDP) encode(b []byte, srcIP, dstIP uint32, payload []byte) {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	u.Length = uint16(UDPHeaderLen + len(payload))
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	b[6], b[7] = 0, 0
	sum := pseudoHeaderSum(srcIP, dstIP, ProtoUDP, int(u.Length))
	sum = addToSum(sum, b[:UDPHeaderLen])
	sum = addToSum(sum, payload)
	u.Checksum = finishSum(sum)
	if u.Checksum == 0 {
		u.Checksum = 0xffff // RFC 768: zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[6:8], u.Checksum)
}

func (u *UDP) decode(b []byte) error {
	if len(b) < UDPHeaderLen {
		return errTruncated("udp", UDPHeaderLen, len(b))
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	return nil
}

// LayerType identifies a decoded layer.
type LayerType int

// Decoded layer kinds.
const (
	LayerEthernet LayerType = iota
	LayerIPv4
	LayerTCP
	LayerUDP
	LayerPayload
)

// Decoder decodes Ethernet/IPv4/TCP|UDP frames into preallocated layer
// values, gopacket DecodingLayerParser style: reuse one Decoder across
// packets; Decoded lists which layers the last call populated; Payload
// aliases the input buffer (no copies).
type Decoder struct {
	Eth     Ethernet
	IP      IPv4
	TCP     TCP
	UDP     UDP
	Payload []byte
	Decoded []LayerType
}

// Errors the decoder can return.
var (
	ErrNotIPv4      = errors.New("packet: frame is not IPv4")
	ErrUnknownProto = errors.New("packet: unsupported transport protocol")
)

func errTruncated(layer string, want, got int) error {
	return fmt.Errorf("packet: truncated %s header: need %d bytes, have %d", layer, want, got)
}

// Decode parses one frame. On success Decoded holds the layer sequence and
// Payload the transport payload (possibly empty).
func (d *Decoder) Decode(frame []byte) error {
	d.Decoded = d.Decoded[:0]
	d.Payload = nil
	if err := d.Eth.decode(frame); err != nil {
		return err
	}
	d.Decoded = append(d.Decoded, LayerEthernet)
	if d.Eth.EtherType != EtherTypeIPv4 {
		return ErrNotIPv4
	}
	rest := frame[EthernetHeaderLen:]
	if err := d.IP.decode(rest); err != nil {
		return err
	}
	d.Decoded = append(d.Decoded, LayerIPv4)
	// Trust TotalLength when plausible (frames may carry link padding).
	ipPayload := rest[d.IP.headerLenBytes:]
	if tl := int(d.IP.TotalLength); tl >= d.IP.headerLenBytes && tl <= len(rest) {
		ipPayload = rest[d.IP.headerLenBytes:tl]
	}
	switch d.IP.Protocol {
	case ProtoTCP:
		if err := d.TCP.decode(ipPayload); err != nil {
			return err
		}
		d.Decoded = append(d.Decoded, LayerTCP)
		d.Payload = ipPayload[d.TCP.dataOffsetBytes:]
	case ProtoUDP:
		if err := d.UDP.decode(ipPayload); err != nil {
			return err
		}
		d.Decoded = append(d.Decoded, LayerUDP)
		d.Payload = ipPayload[UDPHeaderLen:]
	default:
		return ErrUnknownProto
	}
	if len(d.Payload) > 0 {
		d.Decoded = append(d.Decoded, LayerPayload)
	}
	return nil
}

// FiveTuple extracts the flow key of the last decoded packet.
func (d *Decoder) FiveTuple() hashing.FiveTuple {
	ft := hashing.FiveTuple{SrcIP: d.IP.SrcIP, DstIP: d.IP.DstIP, Proto: d.IP.Protocol}
	switch d.IP.Protocol {
	case ProtoTCP:
		ft.SrcPort, ft.DstPort = d.TCP.SrcPort, d.TCP.DstPort
	case ProtoUDP:
		ft.SrcPort, ft.DstPort = d.UDP.SrcPort, d.UDP.DstPort
	}
	return ft
}

// Build serializes a full frame: Ethernet + IPv4 + (TCP|UDP per proto) +
// payload. TCP fields seq/ack/flags come from tcp; for UDP pass nil tcp.
func Build(eth Ethernet, srcIP, dstIP uint32, proto uint8, tcp *TCP, udp *UDP, payload []byte) ([]byte, error) {
	var l4Len int
	switch proto {
	case ProtoTCP:
		if tcp == nil {
			return nil, errors.New("packet: TCP frame needs a TCP header")
		}
		l4Len = TCPHeaderLen
	case ProtoUDP:
		if udp == nil {
			return nil, errors.New("packet: UDP frame needs a UDP header")
		}
		l4Len = UDPHeaderLen
	default:
		return nil, ErrUnknownProto
	}
	total := EthernetHeaderLen + IPv4HeaderLen + l4Len + len(payload)
	frame := make([]byte, total)
	eth.EtherType = EtherTypeIPv4
	eth.encode(frame)

	ip := IPv4{
		TotalLength: uint16(IPv4HeaderLen + l4Len + len(payload)),
		TTL:         64,
		Protocol:    proto,
		SrcIP:       srcIP,
		DstIP:       dstIP,
	}
	ip.encode(frame[EthernetHeaderLen:])

	l4 := frame[EthernetHeaderLen+IPv4HeaderLen:]
	switch proto {
	case ProtoTCP:
		tcp.encode(l4, srcIP, dstIP, payload)
	case ProtoUDP:
		udp.encode(l4, srcIP, dstIP, payload)
	}
	copy(l4[l4Len:], payload)
	return frame, nil
}
