package bro

import (
	"testing"

	"nwdeploy/internal/leakcheck"
)

// Run starts a helper goroutine to decide ahead; every Run, including one
// that panics, must have joined it before it returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }
