package control

import (
	"encoding/json"
	"io"
	"net"
	"testing"

	"nwdeploy/internal/obs"
)

// fuzzController is a controller with a retained history of every kind of
// generation: a shed published before any plan (a generation without
// manifests), a plan, a shed-only publish, and a second plan with other
// ranges under a trace context. It returns the bad-request counter.
func fuzzController(tb testing.TB) (*Controller, *obs.Counter) {
	metrics := obs.New()
	ctrl, err := NewControllerOpts("127.0.0.1:0", ControllerOptions{HashKey: 5, Metrics: metrics})
	if err != nil {
		tb.Fatal(err)
	}
	shed := []WireAssignment{{Class: 0, Unit: [2]int{1, -1}, Ranges: []WireRange{{Lo: 0, Hi: 0.1}}}}
	ctrl.PublishShed(1, shed)
	ctrl.UpdatePlan(syntheticPlan(6, 3))
	ctrl.PublishShed(1, shed)
	ctrl.SetTrace(&WireTrace{Trace: "0000000000000001", Span: "0000000000000002"})
	ctrl.UpdatePlan(syntheticPlan(6, 2))
	return ctrl, metrics.Counter("control.requests_bad")
}

// exchangeLine runs one request line through Controller.handle over an
// in-memory pipe and returns what the controller wrote and whether it
// would keep the connection open.
func exchangeLine(ctrl *Controller, line []byte) (out []byte, keep bool) {
	srv, cli := net.Pipe()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(cli)
		got <- b
	}()
	keep = ctrl.handle(srv, json.NewEncoder(srv), line)
	srv.Close()
	out = <-got
	cli.Close()
	return out, keep
}

// FuzzRequestLine feeds arbitrary bytes as one request line to the
// controller. Nothing may panic; a line that is not a JSON request gets
// the malformed-request answer and the connection closed; and the
// bad-request counter moves by one exactly for the lines the controller
// rejects as bad — malformed, an unknown op, or a delta below v2.
func FuzzRequestLine(f *testing.F) {
	for _, s := range []string{
		`{"op":"epoch"}`,
		`{"op":"manifest","node":3}`,
		`{"op":"manifest","node":99,"v":2,"enc":"bin"}`,
		`{"op":"delta","node":2,"v":2,"have":3}`,
		`{"op":"delta","node":2,"v":2,"have":2,"enc":"bin"}`,
		`{"op":"delta","node":1,"v":2,"have":1}`,
		`{"op":"delta","node":4,"v":1,"have":2}`,
		`{"op":"delta","node":-1,"v":2,"have":3,"trace":{"trace":"a","span":"b"}}`,
		`{"op":"manifest","node":0,"stats":{"node":0}}`,
		`{"op":"bogus"}`,
		`{"op":`,
		"\x00\xff",
	} {
		f.Add([]byte(s))
	}
	ctrl, badReqC := fuzzController(f)
	defer ctrl.Close()
	f.Fuzz(func(t *testing.T, line []byte) {
		before := badReqC.Value()
		out, keep := exchangeLine(ctrl, line)
		var req request
		malformed := json.Unmarshal(line, &req) != nil
		bad := malformed || req.Op == "delta" && req.V < ProtocolV2 ||
			req.Op != "epoch" && req.Op != "manifest" && req.Op != "delta"
		want := int64(0)
		if bad {
			want = 1
		}
		if got := badReqC.Value() - before; got != want {
			t.Fatalf("line %q moved the bad-request counter by %d, want %d", line, got, want)
		}
		if malformed {
			if keep {
				t.Fatalf("malformed line %q left the connection open", line)
			}
			if string(out) != `{"epoch":0,"err":"malformed request"}`+"\n" {
				t.Fatalf("malformed line %q answered %q", line, out)
			}
		}
	})
}
