package cluster

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if, after every test has passed, a goroutine
// is still running code of this module: every Close joins what it started,
// so a survivor is a test that did not close what it opened (or a Close that
// does not join).
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := survivors(2 * time.Second); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines still in nwdeploy/internal/ after the tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// survivors returns the stacks of the goroutines, other than the caller's,
// that have a frame in this module, polling until there are none or wait
// has passed.
func survivors(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var left []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "nwdeploy/internal/") && !strings.Contains(g, ".TestMain(") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
