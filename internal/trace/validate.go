package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// DumpSummary is what Validate found in a valid dump.
type DumpSummary struct {
	Reason     string // the header's reason attr
	Components int    // distinct (comp, node) emitters in the body
	Events     int    // body lines
	Evicted    int    // events the rings dropped, from the seq gaps
}

// Validate checks a JSONL dump (Dump, DumpOnce, or the /trace endpoint)
// against the wire schema:
//
//   - every line is a JSON object decoding into Event with no unknown
//     fields;
//   - the first line is the synthetic EvDump header naming the reason,
//     and no other line is;
//   - every event type is in KnownTypes;
//   - trace/span/parent IDs are 16 lowercase hex digits;
//   - per component, Seq is non-negative and strictly increasing (gaps are
//     legal — they are ring evictions — and are counted, not rejected);
//   - the header's components/events attrs are decimal integers matching
//     the body.
func Validate(r io.Reader) (DumpSummary, error) {
	known := map[string]bool{}
	for _, t := range KnownTypes() {
		known[t] = true
	}
	var (
		sum      DumpSummary
		line     int
		lastSeq  = map[string]int{}
		declared struct{ components, events int }
	)
	fail := func(format string, args ...any) (DumpSummary, error) {
		return DumpSummary{}, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			return fail("empty line")
		}
		var ev Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return fail("%v", err)
		}
		if !known[ev.Type] {
			return fail("unknown event type %q", ev.Type)
		}
		for _, err := range []error{
			checkID("trace", ev.Trace, false), checkID("span", ev.Span, false), checkID("parent", ev.Parent, true),
		} {
			if err != nil {
				return fail("%v", err)
			}
		}
		if ev.Comp == "" {
			return fail("missing comp")
		}
		if line == 1 {
			if ev.Type != EvDump {
				return fail("first line must be the %q header, got %q", EvDump, ev.Type)
			}
			attrs := make(map[string]string, len(ev.Attrs))
			for _, a := range ev.Attrs {
				attrs[a.K] = a.V
			}
			if sum.Reason = attrs["reason"]; sum.Reason == "" {
				return fail("dump header has no reason attr")
			}
			var err error
			if declared.components, err = strconv.Atoi(attrs["components"]); err != nil {
				return fail("bad components attr %q", attrs["components"])
			}
			if declared.events, err = strconv.Atoi(attrs["events"]); err != nil {
				return fail("bad events attr %q", attrs["events"])
			}
			continue
		}
		if ev.Type == EvDump {
			return fail("duplicate %q header", EvDump)
		}
		if ev.Seq < 0 {
			return fail("negative seq %d", ev.Seq)
		}
		sum.Events++
		key := fmt.Sprintf("%s/%d", ev.Comp, ev.Node)
		if last, seen := lastSeq[key]; seen {
			if ev.Seq <= last {
				return fail("component %s seq %d not after %d", key, ev.Seq, last)
			}
			sum.Evicted += ev.Seq - last - 1
		} else {
			// The first retained seq > 0 means earlier events were evicted.
			sum.Evicted += ev.Seq
		}
		lastSeq[key] = ev.Seq
	}
	if err := sc.Err(); err != nil {
		return DumpSummary{}, err
	}
	if line == 0 {
		return DumpSummary{}, errors.New("empty file: no dump header")
	}
	sum.Components = len(lastSeq)
	if sum.Events != declared.events {
		return DumpSummary{}, fmt.Errorf("header declares %d events, body holds %d", declared.events, sum.Events)
	}
	if sum.Components != declared.components {
		return DumpSummary{}, fmt.Errorf("header declares %d components, body holds %d", declared.components, sum.Components)
	}
	return sum, nil
}

// checkID validates a 16-lowercase-hex-digit span/trace ID. Parent may be
// empty (epoch roots and the dump header carry none).
func checkID(field, v string, optional bool) error {
	if v == "" {
		if optional {
			return nil
		}
		return fmt.Errorf("missing %s id", field)
	}
	if len(v) != 16 {
		return fmt.Errorf("%s id %q is not 16 hex digits", field, v)
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%s id %q is not lowercase hex", field, v)
		}
	}
	return nil
}
