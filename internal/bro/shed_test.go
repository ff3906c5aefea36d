package bro

import (
	"testing"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// rangeShed sheds sessions of one class whose session hash falls in a
// range — the shape of the governor's per-epoch shed state.
type rangeShed struct {
	class  int
	lo, hi float64
	h      hashing.Hasher
}

func (f rangeShed) Sheds(class int, s traffic.Session) bool {
	if class != f.class {
		return false
	}
	x := f.h.Session(s.Tuple)
	return x >= f.lo && x < f.hi
}

func TestShedFilterVetoesAnalysis(t *testing.T) {
	trace := mixedTrace(t, 4000)
	h := hashing.Hasher{Key: 3}
	mods := StandardModules()
	base := Run(Config{Mode: ModeCoordEvent, Modules: mods, Hasher: h}, trace)
	shed := Run(Config{
		Mode: ModeCoordEvent, Modules: mods, Hasher: h,
		Shed: rangeShed{class: 7, lo: 0, hi: 0.5, h: h}, // signature module
	}, trace)
	if shed.CPUUnits >= base.CPUUnits {
		t.Fatalf("shedding half of signature's hash space did not reduce CPU: %v >= %v",
			shed.CPUUnits, base.CPUUnits)
	}
	if shed.Observed != base.Observed {
		t.Fatalf("shedding changed observed sessions: %d vs %d", shed.Observed, base.Observed)
	}
}

func TestShedFilterFullShedDropsSessionState(t *testing.T) {
	trace := mixedTrace(t, 2000)
	h := hashing.Hasher{Key: 3}
	// One module, fully shed: with the filter making the node responsible
	// for nothing, the early-drop check must skip connection state too.
	mods := []ModuleSpec{moduleByName(t, "signature")}
	full := Run(Config{
		Mode: ModeCoordEvent, Modules: mods, Hasher: h,
		Shed: rangeShed{class: 0, lo: 0, hi: 1, h: h},
	}, trace)
	if full.Conns != 0 {
		t.Fatalf("fully shed node still created %d connection records", full.Conns)
	}
}
