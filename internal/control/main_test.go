package control

import (
	"testing"

	"nwdeploy/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
