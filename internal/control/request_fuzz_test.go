package control

import (
	"bytes"
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
	keep = ctrl.handle(srv, json.NewEncoder(srv), line, new([]byte))
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

// FuzzHeldConn feeds several request lines, one after another, through
// Controller.serve on one connection. Nothing may panic; each answer must
// be byte-equal to the one the same line gets on a fresh connection; and
// the controller must close the connection right after the first v1 or
// error answer, reading nothing more.
func FuzzHeldConn(f *testing.F) {
	for _, s := range []string{
		`{"op":"epoch","v":2}` + "\n" + `{"op":"delta","node":2,"v":2,"have":3,"enc":"bin"}` + "\n" + `{"op":"manifest","node":1,"v":2}` + "\n",
		`{"op":"delta","node":0,"v":2,"have":1}` + "\n" + `{"op":"delta","node":0,"v":2,"have":5,"enc":"bin"}` + "\n" + `{"op":"epoch"}` + "\n" + `{"op":"epoch","v":2}` + "\n",
		`{"op":"manifest","node":3,"v":2,"enc":"bin"}` + "\n" + `{"op":"manifest","node":99,"v":2}` + "\n" + `{"op":"epoch","v":2}` + "\n",
		`{"op":"epoch","v":2}` + "\n" + `{"op":"bogus","v":2}` + "\n" + `{"op":"epoch","v":2}` + "\n",
		`{"op":"epoch","v":2,"stats":{"node":1}}` + "\n" + `{"op":` + "\n",
		`{"op":"epoch","v":2}` + "\n" + `{"op":"epo`,
		"\n\n",
	} {
		f.Add([]byte(s))
	}
	ctrl, _ := fuzzController(f)
	defer ctrl.Close()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > maxRequestLine {
			return // one overlong line is TestControllerBoundsRequestLine's case
		}
		// The answers the complete lines get on fresh connections, up to the
		// first that closes one.
		var want [][]byte
		closed := false
		for rest := in; !closed; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			line := rest[:i+1]
			out, keep := exchangeLine(ctrl, line)
			closed, rest = answerCloses(line, out), rest[i+1:]
			if keep == closed {
				t.Fatalf("line %q answered %q: handle keeps the connection %v", line, out, keep)
			}
			want = append(want, out)
		}

		srv, cli := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			ctrl.serve(srv)
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = cli.Write(in) // fails once the controller closes early
		}()
		defer func() {
			cli.Close()
			<-served
			<-wrote
		}()
		for k, w := range want {
			got := make([]byte, len(w))
			if _, err := io.ReadFull(cli, got); err != nil || !bytes.Equal(got, w) {
				t.Fatalf("answer %d on the held connection: %q (%v), on a fresh one: %q", k, got, err, w)
			}
		}
		if closed {
			var b [1]byte
			if n, err := cli.Read(b[:]); err != io.EOF {
				t.Fatalf("after a closing answer the controller wrote %q (%v), want EOF", b[:n], err)
			}
		}
	})
}

// answerCloses reports whether the protocol ends a connection after line
// is answered with out: the line is malformed or v1, or the answer is an
// error.
func answerCloses(line, out []byte) bool {
	var req request
	if json.Unmarshal(line, &req) != nil || req.V < ProtocolV2 {
		return true
	}
	resp := new(response)
	if len(out) >= 4 && out[0] == 0 { // a binary frame; JSON starts with '{'
		var err error
		if resp, err = decodeBinaryResponse(out[4:]); err != nil {
			return true
		}
	} else if json.Unmarshal(out, resp) != nil {
		return true
	}
	return resp.Err != ""
}
