package bro

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"nwdeploy/internal/traffic"
)

// ConnLog mirrors Bro's conn.log: one record per connection per analysis
// module that handled it. The paper verified that its network-wide
// deployment "is logically equivalent to running a single NIDS on the
// entire traffic" by inspecting Bro logs; LogEquivalent makes that check
// mechanical — a standalone instance's log must equal the merged logs of
// all coordinated nodes, record for record.
type ConnLog struct {
	Records []ConnRecord
}

// ConnRecord is one analyzed (connection, module) pair.
type ConnRecord struct {
	Node    int
	Module  string
	Tuple   string // canonical textual 5-tuple
	Packets int
	Bytes   int
}

// logKey is the identity of a record independent of where it was analyzed.
func (r ConnRecord) logKey() string {
	var b []byte
	b = append(b, r.Module...)
	b = append(b, '|')
	b = append(b, r.Tuple...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Packets), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.Bytes), 10)
	return string(b)
}

// canonicalTupleString renders both directions of a session identically,
// via strconv append (fmt's reflection path costs ~4x as much, and the log
// callback runs once per analyzed (session, module) pair).
func canonicalTupleString(s traffic.Session) string {
	t := s.Tuple
	if t.SrcIP > t.DstIP || (t.SrcIP == t.DstIP && t.SrcPort > t.DstPort) {
		t = t.Reverse()
	}
	b := make([]byte, 0, 48)
	b = appendIPv4(b, t.SrcIP)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(t.SrcPort), 10)
	b = append(b, " -> "...)
	b = appendIPv4(b, t.DstIP)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(t.DstPort), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(t.Proto), 10)
	return string(b)
}

func appendIPv4(b []byte, v uint32) []byte {
	b = strconv.AppendInt(b, int64(v>>24), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(v>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(v>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(v&0xff), 10)
	return b
}

// RunWithLog is Run plus a conn.log of every (session, module) analysis the
// instance performed.
func RunWithLog(cfg Config, sessions []traffic.Session) (Report, *ConnLog) {
	// Most coordinated nodes analyze a fraction of their trace; a modest
	// preallocation still saves the first several append growth copies.
	logger := &ConnLog{Records: make([]ConnRecord, 0, len(sessions)/2+16)}
	rep := runInternal(cfg, sessions, func(mi int, s *traffic.Session) {
		logger.Records = append(logger.Records, ConnRecord{
			Node:    cfg.Node,
			Module:  cfg.Modules[mi].Name,
			Tuple:   canonicalTupleString(*s),
			Packets: s.Packets,
			Bytes:   s.Bytes,
		})
	})
	return rep, logger
}

// Merge combines logs from multiple nodes into one.
func Merge(logs ...*ConnLog) *ConnLog {
	out := &ConnLog{}
	for _, l := range logs {
		out.Records = append(out.Records, l.Records...)
	}
	return out
}

// Sorted returns the record keys in canonical order (for diffing).
func (l *ConnLog) Sorted() []string {
	keys := make([]string, len(l.Records))
	for i, r := range l.Records {
		keys[i] = r.logKey()
	}
	sort.Strings(keys)
	return keys
}

// LogEquivalent reports whether two logs contain exactly the same analysis
// records (ignoring which node performed each), returning the first
// divergence for diagnostics.
func LogEquivalent(a, b *ConnLog) (bool, string) {
	ka, kb := a.Sorted(), b.Sorted()
	if len(ka) != len(kb) {
		return false, fmt.Sprintf("record counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false, fmt.Sprintf("record %d differs:\n  %s\n  %s", i, ka[i], kb[i])
		}
	}
	return true, ""
}

// WriteTSV emits the log in Bro's tab-separated style with a header line.
func (l *ConnLog) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "#fields\tnode\tmodule\tconn\tpackets\tbytes"); err != nil {
		return err
	}
	for _, r := range l.Records {
		line := strings.Join([]string{
			fmt.Sprint(r.Node), r.Module, r.Tuple, fmt.Sprint(r.Packets), fmt.Sprint(r.Bytes),
		}, "\t")
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
