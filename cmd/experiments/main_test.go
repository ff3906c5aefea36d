package main

import (
	"strings"
	"testing"
)

func names(rs []runner) string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return strings.Join(out, ",")
}

func TestSelectRunners(t *testing.T) {
	all := runners("", false)
	allNames := names(all)

	for _, tc := range []struct {
		name          string
		only          string
		withScenarios bool
		want          string // selected names; "" means an error is expected
		errHas        []string
	}{
		{name: "default runs everything", want: allNames},
		{name: "subset keeps canonical order", only: "fig8, fig5", want: "fig5,fig8"},
		{name: "unknown name", only: "fig55", errHas: []string{`"fig55"`, "valid: " + allNames}},
		{name: "mixed known and unknown", only: "fig5,bogus,fig6,nope", errHas: []string{`"bogus", "nope"`, allNames}},
		{name: "trailing comma", only: "fig5,", errHas: []string{`""`}},
		{name: "scenarios-json adds scenarios to a selection", only: "fig5", withScenarios: true, want: "fig5,scenarios"},
		{name: "scenarios-json with scenarios already named", only: "scenarios", withScenarios: true, want: "scenarios"},
		{name: "scenarios-json alone still runs everything", withScenarios: true, want: allNames},
		{name: "scenarios-json does not excuse an unknown name", only: "fig5,bogus", withScenarios: true, errHas: []string{`"bogus"`}},
	} {
		got, err := selectRunners(all, tc.only, tc.withScenarios)
		if tc.want == "" {
			if err == nil {
				t.Errorf("%s: selected %q, want an error", tc.name, names(got))
				continue
			}
			for _, frag := range tc.errHas {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("%s: error %q lacks %q", tc.name, err, frag)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if names(got) != tc.want {
			t.Errorf("%s: selected %q, want %q", tc.name, names(got), tc.want)
		}
	}
}
