package cli

import (
	"bufio"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The README's daemon line: the controller solves, serves until its
// context is cancelled (SIGINT/SIGTERM under Main), then shuts down, closes
// its listeners and writes -metrics.
func TestControllerServesUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	metrics := filepath.Join(t.TempDir(), "run.json")
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		defer pw.Close()
		done <- Controller(ctx, []string{"-listen", "127.0.0.1:0", "-sessions", "500", "-once",
			"-pprof", "127.0.0.1:0", "-metrics", metrics}, io.Discard, pw)
	}()
	var log []string
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		log = append(log, sc.Text())
		if strings.Contains(sc.Text(), "serving Internet2 manifests on 127.0.0.1:") {
			cancel()
		}
	}
	if code := <-done; code != 0 {
		t.Fatalf("exit %d, log:\n%s", code, strings.Join(log, "\n"))
	}
	if len(log) != 2 || !strings.HasSuffix(log[1], "shutting down") {
		t.Fatalf("log:\n%s", strings.Join(log, "\n"))
	}
	if data, err := os.ReadFile(metrics); err != nil || !strings.Contains(string(data), "lp.") {
		t.Fatalf("-metrics: %v\n%s", err, data)
	}
}
