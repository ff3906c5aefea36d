// Package leakcheck fails a test binary that leaves a goroutine of this
// module running after its tests pass. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits. If they passed but a goroutine is still
// running code of this module two seconds later, it prints the survivors'
// stacks and fails: every Close joins what it started, so a survivor is a
// test that did not close what it opened (or a Close that does not join).
func Main(m *testing.M) {
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
