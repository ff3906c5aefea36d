package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"nwdeploy/internal/obs"
)

// promQuantiles are the summary quantiles emitted for every histogram.
var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.9", 0.9},
	{"0.99", 0.99},
}

// PromName sanitizes a metric name into the Prometheus exposition
// alphabet [a-zA-Z0-9_:], mapping every other byte to '_'. Dotted obs
// names like "cluster.epochs" become "cluster_epochs".
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// WriteProm renders an obs snapshot in the Prometheus text exposition
// format: counters and gauges as their own types, histograms as summaries
// with p50/p90/p99 quantiles (estimated from the power-of-two buckets,
// <=2x bucket error) plus _sum and _count. Families are emitted in
// name-sorted order so output is byte-stable for a given snapshot.
func WriteProm(w io.Writer, snap obs.Snapshot) error {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", pn); err != nil {
			return err
		}
		for _, pq := range promQuantiles {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %d\n", pn, pq.label, h.Quantile(pq.q)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteFleetProm renders a fleet snapshot in the Prometheus text format:
// fleet-wide totals and one labeled series per node for the load-bearing
// per-node fields. A nil snapshot writes nothing.
func WriteFleetProm(w io.Writer, snap *FleetSnapshot) error {
	if snap == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE fleet_run_epoch gauge\nfleet_run_epoch %d\n"+
			"# TYPE fleet_ctrl_epoch gauge\nfleet_ctrl_epoch %d\n",
		snap.RunEpoch, snap.CtrlEpoch); err != nil {
		return err
	}
	states := []struct {
		name string
		n    int
	}{
		{"healthy", snap.Healthy},
		{"stale", snap.Stale},
		{"shedding", snap.Shedding},
		{"dark", snap.Dark},
	}
	if _, err := fmt.Fprintf(w, "# TYPE fleet_nodes gauge\n"); err != nil {
		return err
	}
	for _, st := range states {
		if _, err := fmt.Fprintf(w, "fleet_nodes{state=%q} %d\n", st.name, st.n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE fleet_node_health gauge\n"); err != nil {
		return err
	}
	for _, v := range snap.Nodes {
		if _, err := fmt.Fprintf(w, "fleet_node_health{node=\"%d\",state=%q} 1\n", v.Node, v.Health.String()); err != nil {
			return err
		}
	}
	perNode := []struct {
		name string
		get  func(NodeView) string
	}{
		{"fleet_node_epoch", func(v NodeView) string { return strconv.FormatUint(v.Epoch, 10) }},
		{"fleet_node_lag", func(v NodeView) string { return strconv.FormatUint(v.Lag, 10) }},
		{"fleet_node_shed_width", func(v NodeView) string { return promFloat(v.ShedWidth) }},
		{"fleet_node_sessions", func(v NodeView) string { return strconv.Itoa(v.Sessions) }},
		{"fleet_node_alerts", func(v NodeView) string { return strconv.Itoa(v.Alerts) }},
		{"fleet_node_conns", func(v NodeView) string { return strconv.Itoa(v.Conns) }},
		{"fleet_node_silent_epochs", func(v NodeView) string { return strconv.Itoa(v.Silent) }},
	}
	for _, m := range perNode {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", m.name); err != nil {
			return err
		}
		for _, v := range snap.Nodes {
			if _, err := fmt.Fprintf(w, "%s{node=\"%d\"} %s\n", m.name, v.Node, m.get(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ValidateProm checks a Prometheus text exposition for structural
// validity: every non-comment line must be `name[{labels}] value`, names
// must use the exposition alphabet, label bodies must be balanced
// key="value" pairs, values must parse as floats, and # TYPE comments
// must name a known metric type. It returns the first violation found.
func ValidateProm(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	metrics := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("prom line %d: malformed TYPE comment %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("prom line %d: unknown metric type %q", lineNo, fields[3])
				}
			}
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if PromName(name) != name || name == "" {
			return fmt.Errorf("prom line %d: invalid metric name %q", lineNo, name)
		}
		rest = strings.TrimSpace(rest)
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("prom line %d: unterminated label set", lineNo)
			}
			body := rest[1:end]
			if body != "" {
				for _, pair := range strings.Split(body, ",") {
					k, v, ok := strings.Cut(pair, "=")
					if !ok || PromName(k) != k || k == "" {
						return fmt.Errorf("prom line %d: malformed label pair %q", lineNo, pair)
					}
					if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
						return fmt.Errorf("prom line %d: unquoted label value %q", lineNo, pair)
					}
				}
			}
			rest = strings.TrimSpace(rest[end+1:])
		}
		if rest == "" {
			return fmt.Errorf("prom line %d: missing value", lineNo)
		}
		if _, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err != nil {
			return fmt.Errorf("prom line %d: bad value %q: %v", lineNo, rest, err)
		}
		metrics++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if metrics == 0 {
		return fmt.Errorf("prom exposition: no metric samples")
	}
	return nil
}
