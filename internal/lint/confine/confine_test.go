package confine

import (
	"slices"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/load"
)

func TestConfine(t *testing.T) {
	analysistest.Run(t, "testdata/fixture", Analyzer, "./...")
}

// TestAllowlistsExact runs each row with an empty allowlist over the real
// packages that hold every allowed function: the functions flagged must be
// exactly the row's allowlist, so no entry outlives the code it blesses.
func TestAllowlistsExact(t *testing.T) {
	pkgs, err := load.Load("../../..", "./internal/cpu", "./internal/memsim")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		want := slices.Clone(r.allowed)
		slices.Sort(want)
		r.allowed, r.format = nil, "%[3]s"
		a := &analysis.Analyzer{Name: Analyzer.Name, Doc: Analyzer.Doc, Run: func(pass *analysis.Pass) error {
			check(pass, []rule{r})
			return nil
		}}
		findings, err := lint.Run(pkgs, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			if f.Analyzer == a.Name && !slices.Contains(got, f.Message) {
				got = append(got, f.Message)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("row %s: functions naming it = %q, allowlist = %q", r.names[0], got, want)
		}
	}
}
