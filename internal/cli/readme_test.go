package cli

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readmeSkips are the README commands TestREADMECommands does not run, each
// with the test that covers it instead. Every entry must still match a
// README command.
var readmeSkips = []struct{ match, reason string }{
	{"go run ./cmd/controller ", "a daemon that serves until signalled: TestControllerServesUntilCancelled"},
	{"go run ./cmd/fleetstat -addr ", "scrapes another process's live endpoint: TestScrapeLive"},
}

// readmeSmall are the flags appended to each README command to shrink its
// run (Go's flag package keeps the last value of a repeated flag).
func readmeSmall(t *testing.T) map[string][]string {
	return map[string][]string{
		"cluster":     {"-sessions", "300", "-epochs", "3", "-probes", "100"},
		"experiments": {"-quick"},
		"nwdeploy":    {"-spec", writeFile(t, "small.json", `{"sessions": 300}`)},
	}
}

// readmeCommands extracts, in document order, the `go run ./cmd/<name> …`
// commands of README.md's Commands table and sh blocks. Continuations are
// joined, comments and a trailing & dropped, and the table's optional
// "[-quick]" written out.
func readmeCommands(readme string) []string {
	var cmds []string
	inSh, cont := false, ""
	for _, line := range strings.Split(readme, "\n") {
		if row, ok := strings.CutPrefix(line, "| `go run ./cmd/"); ok && !inSh {
			row, _, _ = strings.Cut(row, "`")
			cmds = append(cmds, "go run ./cmd/"+strings.ReplaceAll(row, "[-quick]", "-quick"))
			continue
		}
		switch {
		case line == "```sh":
			inSh = true
			continue
		case line == "```":
			inSh = false
			continue
		case !inSh:
			continue
		}
		line, _, _ = strings.Cut(line, "#")
		if s, ok := strings.CutSuffix(strings.TrimSpace(line), "\\"); ok {
			cont += s + " "
			continue
		}
		line = strings.TrimSuffix(strings.TrimSpace(cont+line), "&")
		cont = ""
		if strings.HasPrefix(line, "go run ./cmd/") {
			cmds = append(cmds, strings.Join(strings.Fields(line), " "))
		}
	}
	return cmds
}

// TestREADMECommands runs every `go run ./cmd/…` command README.md shows,
// in-process through the dispatch table, in document order (so a block's
// later commands read what its earlier ones wrote) in one temp working
// directory, at reduced size, so the docs cannot rot.
func TestREADMECommands(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	small := readmeSmall(t)
	chdir(t, t.TempDir())

	skipUsed := make([]bool, len(readmeSkips))
	ran := 0
	for _, line := range readmeCommands(string(readme)) {
		skipped := false
		for i, s := range readmeSkips {
			if strings.HasPrefix(line, s.match) {
				skipUsed[i], skipped = true, true
				t.Logf("skipped, %s: %s", s.reason, line)
			}
		}
		if skipped {
			continue
		}
		fields := strings.Fields(line)
		name := strings.TrimPrefix(fields[2], "./cmd/")
		cmd, ok := commands[name]
		if !ok {
			t.Errorf("README runs unknown command %q: %s", name, line)
			continue
		}
		args := append(fields[3:], small[name]...)
		for i := range args {
			if i > 0 && args[i-1] == "-pprof" {
				args[i] = "127.0.0.1:0"
			}
		}
		var out, errw bytes.Buffer
		if code := cmd(context.Background(), args, &out, &errw); code != 0 {
			t.Errorf("%s\n  (as %s %s): exit %d\n%s", line, name, strings.Join(args, " "), code, errw.String())
		}
		ran++
	}
	for i, used := range skipUsed {
		if !used {
			t.Errorf("skip entry %q matches no README command; drop it", readmeSkips[i].match)
		}
	}
	if ran == 0 {
		t.Fatal("no README commands found")
	}
}

// chdir changes the working directory for the rest of the test. The test
// must not be parallel: the working directory is the process's.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}
