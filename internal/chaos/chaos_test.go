package chaos

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// Streams must replay identically for the same (seed, id) and diverge
// across ids — the property the cluster's per-agent determinism rests on.
func TestStreamDeterministicPerID(t *testing.T) {
	in := NewInjector(42, NetworkFaults{DropProb: 0.3, BlackholeProb: 0.2})
	a1, a2 := in.Stream(3), in.Stream(3)
	b := in.Stream(4)
	var seqA1, seqA2, seqB []Fault
	for i := 0; i < 200; i++ {
		seqA1 = append(seqA1, a1.Next())
		seqA2 = append(seqA2, a2.Next())
		seqB = append(seqB, b.Next())
	}
	if !reflect.DeepEqual(seqA1, seqA2) {
		t.Fatal("same (seed, id) produced different fault sequences")
	}
	if reflect.DeepEqual(seqA1, seqB) {
		t.Fatal("distinct ids produced identical fault sequences")
	}
	if a1.Draws() != 200 {
		t.Fatalf("Draws() = %d, want 200", a1.Draws())
	}
}

func TestStreamFaultMixMatchesProbabilities(t *testing.T) {
	s := NewInjector(7, NetworkFaults{DropProb: 0.5}).Stream(0)
	drops := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if s.Next() == FaultError {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("drop fraction %v far from configured 0.5", frac)
	}
	// Zero faults: everything passes.
	clean := NewInjector(7, NetworkFaults{}).Stream(0)
	for i := 0; i < 100; i++ {
		if f := clean.Next(); f != FaultNone {
			t.Fatalf("fault %v from a zero-probability mix", f)
		}
	}
}

func TestDialerInjectsErrors(t *testing.T) {
	d := &Dialer{Stream: NewInjector(1, NetworkFaults{DropProb: 1}).Stream(0)}
	if _, err := d.Dial("tcp", "127.0.0.1:1", time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// A black-holed dial must connect, accept the request bytes, and then let
// the caller's read deadline expire with a timeout error — the failure
// mode that exercises per-attempt RPC timeouts.
func TestDialerBlackholeTimesOut(t *testing.T) {
	d := &Dialer{Stream: NewInjector(1, NetworkFaults{BlackholeProb: 1}).Stream(0)}
	conn, err := d.Dial("tcp", "127.0.0.1:1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("{\"op\":\"epoch\"}\n")); err != nil {
		t.Fatalf("write into black hole: %v", err)
	}
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read err = %v, want a net timeout", err)
	}
}

func TestGateDropsWhileClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGate(ln)
	defer g.Close()

	// Echo one byte back per accepted connection.
	go func() {
		for {
			c, err := g.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				if _, err := c.Read(buf); err == nil {
					_, _ = c.Write(buf)
				}
			}(c)
		}
	}()

	exchange := func() error {
		conn, err := net.DialTimeout("tcp", g.Addr().String(), time.Second)
		if err != nil {
			return err
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := conn.Write([]byte("x")); err != nil {
			return err
		}
		_, err = conn.Read(make([]byte, 1))
		return err
	}

	if err := exchange(); err != nil {
		t.Fatalf("exchange through open gate: %v", err)
	}
	g.SetOpen(false)
	if g.open.Load() {
		t.Fatal("gate reports open after SetOpen(false)")
	}
	if err := exchange(); err == nil {
		t.Fatal("exchange succeeded through closed gate")
	}
	g.SetOpen(true)
	if err := exchange(); err != nil {
		t.Fatalf("exchange after reopening: %v", err)
	}
}

func TestBuildScheduleDeterministicAndCapped(t *testing.T) {
	cfg := ScheduleConfig{
		Epochs: 50, Nodes: 11, Seed: 99,
		NodeFailProb: 0.3, MaxDown: 2, ControllerOutageProb: 0.2,
	}
	s1, s2 := BuildSchedule(cfg), BuildSchedule(cfg)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same config produced different schedules")
	}
	sawDown, sawOutage := false, false
	for _, e := range s1.Epochs {
		if len(e.DownNodes) > cfg.MaxDown {
			t.Fatalf("epoch has %d down nodes, cap %d", len(e.DownNodes), cfg.MaxDown)
		}
		if len(e.DownNodes) > 0 {
			sawDown = true
			if e.Down(e.DownNodes[0]) != true || e.Down(-1) {
				t.Fatal("Down membership check wrong")
			}
		}
		if e.ControllerDown {
			sawOutage = true
		}
	}
	if !sawDown || !sawOutage {
		t.Fatalf("schedule exercised no faults (down=%v outage=%v); seed choice vacuous", sawDown, sawOutage)
	}
	// A different seed must yield a different schedule.
	other := cfg
	other.Seed = 100
	if reflect.DeepEqual(BuildSchedule(cfg), BuildSchedule(other)) {
		t.Fatal("different seeds produced identical schedules")
	}
}
