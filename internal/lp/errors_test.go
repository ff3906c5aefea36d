package lp

import (
	"errors"
	"fmt"
	"math"
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
// solve path.
func TestNonFiniteInputIsAnError(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name            string
		cost, coef, rhs float64
	}{
		{"nan-cost", nan, 1, 4},
		{"nan-coef", 1, nan, 4},
		{"inf-coef", 1, inf, 4},
		{"neg-inf-coef", 1, -inf, 4},
		{"nan-rhs", 1, 1, nan},
		{"inf-rhs", 1, 1, inf},
	}
	for _, c := range cases {
		for _, opts := range []Options{{}, {Presolve: true}, {WarmBasis: &Basis{}}} {
			p := New(Maximize)
			x := p.AddVar("x", c.cost, 0, 10)
			y := p.AddVar("y", 1, 0, 10)
			p.AddConstraint("c", []Term{{x, c.coef}, {y, 1}}, LE, c.rhs)
			sol, err := p.SolveOpts(opts)
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s (presolve=%v warm=%v): got %v, %+v; want ErrNonFinite", c.name, opts.Presolve, opts.WarmBasis != nil, err, sol)
			}
		}
	}
}

func TestSentinelsSurviveWrapping(t *testing.T) {
	// The nips/core callers wrap Status.Err with %w; the chain must stay
	// matchable through arbitrary annotation layers.
	p := New(Maximize)
	x := p.AddVar("x", 1, 0, Inf())
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
	x := p.AddVar("x", 1, 0, 1)
	p.AddConstraint("c", []Term{{x, 1}}, GE, 2)
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
	x := p.AddVar("x", 3, 0, Inf())
	y := p.AddVar("y", 5, 0, Inf())
	p.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	p.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	p.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := p.SolveOpts(Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sol.Status.Err(), ErrIterLimit) {
		t.Fatalf("status %v Err() = %v, want ErrIterLimit", sol.Status, sol.Status.Err())
	}
}
