package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Libpcap classic file format (the one tcpdump -w writes): a 24-byte
// global header followed by 16-byte per-record headers. Traces written
// here open in tcpdump and wireshark.

const (
	pcapMagicLE     = 0xa1b2c3d4
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	pcapLinkEther   = 1
	pcapSnapLenMax  = 65535
	pcapGlobalBytes = 24
	pcapRecordBytes = 16
)

// Writer emits a libpcap capture file.
type Writer struct {
	w       io.Writer
	started bool
}

// NewWriter wraps w; the global header is written on the first packet.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WritePacket appends one frame with the given capture timestamp.
func (pw *Writer) WritePacket(ts time.Time, frame []byte) error {
	if !pw.started {
		var hdr [pcapGlobalBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicLE)
		binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMaj)
		binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMin)
		// thiszone=0, sigfigs=0
		binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLenMax)
		binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkEther)
		if _, err := pw.w.Write(hdr[:]); err != nil {
			return fmt.Errorf("packet: pcap global header: %w", err)
		}
		pw.started = true
	}
	if len(frame) > pcapSnapLenMax {
		return fmt.Errorf("packet: frame of %d bytes exceeds pcap snaplen", len(frame))
	}
	var rec [pcapRecordBytes]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("packet: pcap record header: %w", err)
	}
	if _, err := pw.w.Write(frame); err != nil {
		return fmt.Errorf("packet: pcap record body: %w", err)
	}
	return nil
}

// Reader consumes a libpcap capture file through one reused buffer: the
// stream is read in large chunks and each record is parsed where it lies,
// so reading a frame allocates nothing.
type Reader struct {
	r       io.Reader
	buf     []byte
	lo, hi  int // buf[lo:hi] is read but not yet consumed
	started bool
	swapped bool // big-endian file
}

// readBufBytes holds the largest record the format allows (16-byte header
// plus a snaplen-sized frame) with room to spare, so the buffer never grows.
const readBufBytes = 128 << 10

// NewReader wraps r; the global header is validated on the first read.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, buf: make([]byte, readBufBytes)} }

// Reset points the Reader at r as NewReader would, keeping its buffer: the
// global header is validated again on the first read.
func (pr *Reader) Reset(r io.Reader) { *pr = Reader{r: r, buf: pr.buf} }

// ErrBadMagic marks a stream that is not a classic pcap file.
var ErrBadMagic = errors.New("packet: not a pcap file (bad magic)")

// fill makes at least n unconsumed bytes available at buf[lo:], moving the
// unconsumed tail to the front and reading as much as the source will give.
// It returns io.EOF when the stream ended with nothing unconsumed and
// io.ErrUnexpectedEOF when it ended inside the n bytes.
func (pr *Reader) fill(n int) error {
	if pr.hi-pr.lo >= n {
		return nil
	}
	pr.hi = copy(pr.buf, pr.buf[pr.lo:pr.hi])
	pr.lo = 0
	m, err := io.ReadAtLeast(pr.r, pr.buf[pr.hi:], n-pr.hi)
	pr.hi += m
	if err == io.EOF && pr.hi > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (pr *Reader) readGlobal() error {
	if err := pr.fill(pcapGlobalBytes); err != nil {
		return err
	}
	hdr := pr.buf[pr.lo : pr.lo+pcapGlobalBytes]
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case pcapMagicLE:
		pr.swapped = false
	case 0xd4c3b2a1:
		pr.swapped = true
	default:
		return ErrBadMagic
	}
	link := pr.u32(hdr[20:24])
	if link != pcapLinkEther {
		return fmt.Errorf("packet: unsupported pcap link type %d", link)
	}
	pr.lo += pcapGlobalBytes
	pr.started = true
	return nil
}

func (pr *Reader) u32(b []byte) uint32 {
	if pr.swapped {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// ReadPacket returns the next frame and its timestamp; io.EOF at the end.
//
// The frame aliases the Reader's buffer and is valid only until the next
// ReadPacket (gopacket's zero-copy contract): consume it — Decode it,
// assemble it, take its length — or copy it before reading on.
func (pr *Reader) ReadPacket() (time.Time, []byte, error) {
	if !pr.started {
		if err := pr.readGlobal(); err != nil {
			return time.Time{}, nil, err
		}
	}
	if err := pr.fill(pcapRecordBytes); err != nil {
		return time.Time{}, nil, err
	}
	rec := pr.buf[pr.lo : pr.lo+pcapRecordBytes]
	sec := pr.u32(rec[0:4])
	usec := pr.u32(rec[4:8])
	capLen := pr.u32(rec[8:12])
	if capLen > pcapSnapLenMax {
		return time.Time{}, nil, fmt.Errorf("packet: implausible capture length %d", capLen)
	}
	end := pcapRecordBytes + int(capLen)
	if err := pr.fill(end); err != nil {
		return time.Time{}, nil, fmt.Errorf("packet: truncated record body: %w", err)
	}
	// Capacity is clipped so an append by the caller cannot reach the
	// next record.
	frame := pr.buf[pr.lo+pcapRecordBytes : pr.lo+end : pr.lo+end]
	pr.lo += end
	return time.Unix(int64(sec), int64(usec)*1000), frame, nil
}
