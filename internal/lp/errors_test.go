package lp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestStatusErrSentinels(t *testing.T) {
	cases := []struct {
		status Status
		want   error
	}{
		{StatusOptimal, nil},
		{StatusInfeasible, ErrInfeasible},
		{StatusUnbounded, ErrUnbounded},
		{StatusIterLimit, ErrIterLimit},
	}
	for _, c := range cases {
		if got := c.status.Err(); !errors.Is(got, c.want) {
			t.Errorf("Status(%v).Err() = %v, want %v", c.status, got, c.want)
		}
	}
	if err := Status(99).Err(); err == nil {
		t.Error("unknown status must map to a non-nil error")
	}
}

func TestErrNoVariablesIsMatchable(t *testing.T) {
	p := New(Minimize)
	_, err := p.Solve()
	if !errors.Is(err, ErrNoVariables) {
		t.Fatalf("empty problem returned %v, want ErrNoVariables", err)
	}
}

// TestNonFiniteInputIsAnError: NaN or infinite data used to come back as
// StatusOptimal with a NaN objective. It must be refused up front, on every
// solve path, naming the offending variable or constraint by its index.
func TestNonFiniteInputIsAnError(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name            string
		cost, coef, rhs float64
		want            string
	}{
		{"nan-cost", nan, 1, 4, "variable 1 has cost NaN"},
		{"nan-coef", 1, nan, 4, "constraint 1 has coefficient NaN on variable 1"},
		{"inf-coef", 1, inf, 4, "constraint 1 has coefficient +Inf on variable 1"},
		{"neg-inf-coef", 1, -inf, 4, "constraint 1 has coefficient -Inf on variable 1"},
		{"nan-rhs", 1, 1, nan, "constraint 1 has rhs NaN"},
		{"inf-rhs", 1, 1, inf, "constraint 1 has rhs +Inf"},
	}
	for _, c := range cases {
		for _, opts := range []Options{{}, {Presolve: true}, {WarmBasis: &Basis{}}} {
			p := New(Maximize)
			y := p.AddVar(1, 0, 10)
			x := p.AddVar(c.cost, 0, 10)
			p.AddConstraint([]Term{{y, 1}}, LE, 10)
			p.AddConstraint([]Term{{y, 1}, {x, c.coef}}, LE, c.rhs)
			sol, err := p.SolveOpts(opts)
			if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (presolve=%v warm=%v): got %v, %+v; want ErrNonFinite naming %q", c.name, opts.Presolve, opts.WarmBasis != nil, err, sol, c.want)
			}
		}
	}
}

// builderPanic runs build on a problem that already holds variable 0 and
// constraint 0, and returns what it panicked with ("<nil>" if it did not).
func builderPanic(build func(p *Problem)) (msg string) {
	p := New(Minimize)
	x := p.AddVar(1, 0, 1)
	p.AddConstraint([]Term{{x, 1}}, LE, 1)
	defer func() { msg = fmt.Sprint(recover()) }()
	build(p)
	return ""
}

// TestPanicsOnBadBounds: bounds that are inverted, or not finite where they
// must be, are a model-builder bug. AddVar panics, naming the variable index.
func TestPanicsOnBadBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		lb, ub float64
		want   string
	}{
		{"inverted-bounds", 5, 2, "variable 1 has invalid bounds [5, 2]"},
		{"infinite-lb", -inf, 0, "variable 1 has invalid bounds [-Inf, 0]"},
		{"nan-ub", 0, nan, "variable 1 has invalid bounds [0, NaN]"},
	}
	for _, c := range cases {
		msg := builderPanic(func(p *Problem) { p.AddVar(1, c.lb, c.ub) })
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
		}
	}
}

// TestPanicsOnBadVariable: a constraint term on a variable the problem does
// not hold panics, naming the constraint and the variable index.
func TestPanicsOnBadVariable(t *testing.T) {
	const want = "constraint 1 references unknown variable 7"
	msg := builderPanic(func(p *Problem) { p.AddConstraint([]Term{{Var(7), 1}}, LE, 1) })
	if !strings.Contains(msg, want) {
		t.Errorf("panic %q, want one naming %q", msg, want)
	}
}

func TestSentinelsSurviveWrapping(t *testing.T) {
	// The nips/core callers wrap Status.Err with %w; the chain must stay
	// matchable through arbitrary annotation layers.
	p := New(Maximize)
	x := p.AddVar(1, 0, Inf())
	_ = x
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
	wrapped := fmt.Errorf("planner: relaxation: %w", sol.Status.Err())
	wrapped = fmt.Errorf("outer: %w", wrapped)
	if !errors.Is(wrapped, ErrUnbounded) {
		t.Fatalf("%v does not match ErrUnbounded", wrapped)
	}
	if errors.Is(wrapped, ErrInfeasible) {
		t.Fatal("wrapped unbounded error matched ErrInfeasible")
	}
}

func TestInfeasibleStatusErr(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(1, 0, 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sol.Status.Err(), ErrInfeasible) {
		t.Fatalf("status %v Err() = %v, want ErrInfeasible", sol.Status, sol.Status.Err())
	}
}

func TestIterLimitStatusErr(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar(3, 0, Inf())
	y := p.AddVar(5, 0, Inf())
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	p.AddConstraint([]Term{{y, 2}}, LE, 12)
	p.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := p.SolveOpts(Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sol.Status.Err(), ErrIterLimit) {
		t.Fatalf("status %v Err() = %v, want ErrIterLimit", sol.Status, sol.Status.Err())
	}
}
