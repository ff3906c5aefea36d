package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwdeploy/internal/packet"
)

// A misspelled spec key is an error naming it; it used to be ignored and the
// default 10,000 sessions planned.
func TestSpecUnknownKey(t *testing.T) {
	spec := writeFile(t, "spec.json", `{"sesions": 5, "topology": "geant"}`)
	code, out, errs := run(Nwdeploy, "-mode", "nids", "-spec", spec)
	if code != 1 || out != "" || !strings.Contains(errs, `unknown field "sesions"`) {
		t.Fatalf("misspelled key: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	spec = writeFile(t, "spec.json", `{"sessions": 5} {}`)
	if code, _, errs := run(Nwdeploy, "-spec", spec); code != 1 || !strings.Contains(errs, "data after the spec") {
		t.Fatalf("trailing value: exit %d, stderr %q", code, errs)
	}
}

// -mode pcap writes the spec's workload; the same spec writes the same
// bytes, and the capture reads back with the frame count it reports.
func TestPcapDeterministic(t *testing.T) {
	spec := writeFile(t, "spec.json", `{"sessions": 60, "seed": 3, "topology": "geant"}`)
	dir := t.TempDir()
	var captures [2][]byte
	for i := range captures {
		path := filepath.Join(dir, fmt.Sprintf("run%d.pcap", i))
		out := mustRun(t, Nwdeploy, "-mode", "pcap", "-spec", spec, "-o", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		captures[i] = data
		r := packet.NewReader(bytes.NewReader(data))
		frames := 0
		for {
			if _, _, err := r.ReadPacket(); err != nil {
				break
			}
			frames++
		}
		want := fmt.Sprintf("wrote %d packets from 60 sessions on Geant to %s (%d bytes)\n", frames, path, len(data))
		if out != want {
			t.Fatalf("stdout %q, want %q", out, want)
		}
	}
	if !bytes.Equal(captures[0], captures[1]) {
		t.Fatal("two runs of the same spec wrote different captures")
	}
	if code, _, errs := run(Nwdeploy, "-mode", "pcap"); code != 1 || !strings.Contains(errs, "-o FILE") {
		t.Fatalf("no -o: exit %d, stderr %q", code, errs)
	}
}
