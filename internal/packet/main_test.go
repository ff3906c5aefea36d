package packet

import (
	"testing"

	"nwdeploy/internal/leakcheck"
)

// StreamSessions reads ahead on a helper goroutine; every call, including
// one that panics, must have joined it before it returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }
