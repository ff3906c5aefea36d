package trace

import (
	"bytes"
	"strings"
	"testing"
)

// emitProgram reads data as a sequence of emits: each byte picks an epoch,
// a component (the runtime root or one of three child kinds at ids -1..6)
// and an event type. The first byte also sizes the rings at 1..6 events,
// so most programs evict.
func emitProgram(data []byte) *Tracer {
	ring := 1
	if len(data) > 0 {
		ring += int(data[0] % 6)
	}
	tr := New(Options{Seed: int64(len(data)), RingSize: ring})
	var types []string
	for _, typ := range KnownTypes() {
		if typ != EvDump { // the header's alone
			types = append(types, typ)
		}
	}
	kinds := []string{"agent", "governor", "controller"}
	for i, b := range data {
		sp := tr.Epoch(int(b >> 6))
		if k := b & 3; k != 0 {
			sp = sp.Child(kinds[k-1], int(b>>2&7)-1)
		}
		sp.Event(types[(int(b)+i)%len(types)], Int("i", i))
	}
	return tr
}

// checkProgram dumps an emit program and requires the dump to validate with
// the header counts equal to what the tracer recorded.
func checkProgram(t *testing.T, data []byte) {
	t.Helper()
	tr := emitProgram(data)
	var dump bytes.Buffer
	if err := tr.Dump(&dump, "fuzz"); err != nil {
		t.Fatal(err)
	}
	sum, err := Validate(&dump)
	if err != nil {
		t.Fatalf("dump of %x does not validate: %v\n%s", data, err, dump.String())
	}
	emitted, dropped := tr.Stats()
	type comp struct {
		kind string
		node int
	}
	comps := map[comp]bool{}
	for _, ev := range tr.Events() {
		comps[comp{ev.Comp, ev.Node}] = true
	}
	want := DumpSummary{Reason: "fuzz", Components: len(comps), Events: emitted - dropped, Evicted: dropped}
	if sum != want {
		t.Fatalf("dump of %x: summary %+v, want %+v", data, sum, want)
	}
}

// validDump is a small real dump with one eviction: the agent's ring of 2
// keeps seq 1 and 2 of its three events.
func validDump(tb testing.TB) string {
	tb.Helper()
	tr := New(Options{Seed: 1, RingSize: 2})
	root := tr.Epoch(1)
	root.Event(EvEpochStart)
	ag := root.Child("agent", 3)
	for i := 0; i < 3; i++ {
		ag.Event(EvFetchRetry, Int("attempt", i))
	}
	var b bytes.Buffer
	if err := tr.Dump(&b, "test"); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

func TestValidate(t *testing.T) {
	dump := validDump(t)
	sum, err := Validate(strings.NewReader(dump))
	if want := (DumpSummary{Reason: "test", Components: 2, Events: 3, Evicted: 1}); err != nil || sum != want {
		t.Fatalf("valid dump: %+v, %v; want %+v", sum, err, want)
	}
	lines := strings.SplitAfter(dump, "\n")
	for _, tc := range []struct {
		name, dump, errHas string
	}{
		// fmt.Sscan read "2junk" as 2, and a negative first seq was
		// subtracted from the eviction count.
		{"junk after a header count", strings.Replace(dump, `"components","v":"2"`, `"components","v":"2junk"`, 1), `bad components attr "2junk"`},
		{"negative seq", strings.Replace(dump, `"seq":1,`, `"seq":-7,`, 1), "negative seq -7"},
		{"events count off", strings.Replace(dump, `"events","v":"3"`, `"events","v":"4"`, 1), "header declares 4 events, body holds 3"},
		{"no header", strings.Join(lines[1:], ""), "first line must be"},
		{"duplicate header", lines[0] + dump, "duplicate"},
		{"seq not increasing", strings.Replace(dump, `"seq":2,`, `"seq":1,`, 1), "seq 1 not after 1"},
		{"unknown type", strings.Replace(dump, `"fetch_retry"`, `"fetch_retyr"`, 1), `unknown event type "fetch_retyr"`},
		{"unknown field", strings.Replace(dump, `"seq":1,`, `"seq":1,"extra":0,`, 1), "unknown field"},
		{"uppercase id", strings.Replace(dump, `"span":"`, `"span":"A`, 1), "span id"},
		{"empty line", lines[0] + "\n" + strings.Join(lines[1:], ""), "empty line"},
		{"empty file", "", "empty file"},
	} {
		if _, err := Validate(strings.NewReader(tc.dump)); err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.errHas)
		}
	}
}

// FuzzValidate feeds arbitrary bytes to Validate, which must never panic,
// and reads the same bytes as an emit program whose dump must validate.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	dump := validDump(f)
	f.Add([]byte(dump))
	f.Add([]byte(strings.Replace(dump, `"seq":1,`, `"seq":-7,`, 1)))
	f.Add([]byte(strings.Replace(dump, `"components","v":"2"`, `"components","v":"3junk"`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Validate(bytes.NewReader(data))
		checkProgram(t, data)
	})
}
