package harness

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSupervisorPanicIsolation(t *testing.T) {
	var ranAfter bool
	exps := []Experiment{
		{Name: "boom", Run: func(h *Harness, w io.Writer) error {
			panic("injected panic")
		}},
		{Name: "after", Run: func(h *Harness, w io.Writer) error {
			ranAfter = true
			io.WriteString(w, "after ran\n")
			return nil
		}},
	}
	var buf bytes.Buffer
	results, err := SuperviseExperiments(QuickOptions(), SupervisorOptions{}, exps, &buf)
	if err == nil {
		t.Fatal("expected aggregate error from the panicking experiment")
	}
	if !ranAfter {
		t.Fatal("experiment after the panic did not run")
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if !strings.Contains(results[0].Err, "injected panic") {
		t.Errorf("panic not captured: %q", results[0].Err)
	}
	if results[1].Err != "" {
		t.Errorf("successor tainted: %q", results[1].Err)
	}
	if !strings.Contains(buf.String(), "after ran") {
		t.Error("successor output missing from stream")
	}
}

func TestSupervisorRetriesReseed(t *testing.T) {
	var seeds []int64
	exps := []Experiment{{Name: "flaky", Run: func(h *Harness, w io.Writer) error {
		seeds = append(seeds, h.Opt.Seed)
		if len(seeds) < 3 {
			panic("not yet")
		}
		return nil
	}}}
	var buf bytes.Buffer
	results, err := SuperviseExperiments(QuickOptions(), SupervisorOptions{Retries: 3}, exps, &buf)
	if err != nil {
		t.Fatalf("should succeed on third attempt: %v", err)
	}
	if results[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3", results[0].Attempts)
	}
	if len(seeds) != 3 || seeds[0] == seeds[1] || seeds[1] == seeds[2] {
		t.Errorf("retries not reseeded: %v", seeds)
	}
}

func TestSupervisorTimeout(t *testing.T) {
	opt := QuickOptions()
	opt.Timeout = 50 * time.Millisecond
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	exps := []Experiment{
		{Name: "hang", Run: func(h *Harness, w io.Writer) error {
			<-release
			return nil
		}},
		{Name: "after", Run: func(h *Harness, w io.Writer) error { return nil }},
	}
	var buf bytes.Buffer
	results, err := SuperviseExperiments(opt, SupervisorOptions{}, exps, &buf)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if !strings.Contains(results[0].Err, "deadline exceeded") {
		t.Errorf("timeout not reported: %q", results[0].Err)
	}
	if results[1].Err != "" {
		t.Errorf("successor failed after timeout: %q", results[1].Err)
	}
}

func TestSupervisorResume(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	opt := QuickOptions()
	var runs int
	exps := []Experiment{{Name: "counted", Run: func(h *Harness, w io.Writer) error {
		runs++
		io.WriteString(w, "counted output\n")
		return nil
	}}}

	var buf1 bytes.Buffer
	if _, err := SuperviseExperiments(opt, SupervisorOptions{StateFile: state}, exps, &buf1); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("first pass ran %d times", runs)
	}

	// Resume: the completed experiment must be skipped but its saved output
	// replayed so the report is still complete.
	var buf2 bytes.Buffer
	results, err := SuperviseExperiments(opt, SupervisorOptions{StateFile: state, Resume: true}, exps, &buf2)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("resume re-ran the experiment (runs=%d)", runs)
	}
	if !results[0].Resumed {
		t.Error("result not marked resumed")
	}
	if !strings.Contains(buf2.String(), "counted output") {
		t.Error("resumed output not replayed")
	}

	// A changed option fingerprint must invalidate the checkpoint.
	opt2 := opt
	opt2.Seed += 100
	if _, err := SuperviseExperiments(opt2, SupervisorOptions{StateFile: state, Resume: true}, exps, &buf2); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("fingerprint mismatch did not force a re-run (runs=%d)", runs)
	}
}

func TestSupervisorFailedCellRerunOnResume(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	opt := QuickOptions()
	var fail = true
	exps := []Experiment{{Name: "flaky", Run: func(h *Harness, w io.Writer) error {
		if fail {
			panic("first pass fails")
		}
		return nil
	}}}
	var buf bytes.Buffer
	if _, err := SuperviseExperiments(opt, SupervisorOptions{StateFile: state}, exps, &buf); err == nil {
		t.Fatal("first pass should fail")
	}
	fail = false
	results, err := SuperviseExperiments(opt, SupervisorOptions{StateFile: state, Resume: true}, exps, &buf)
	if err != nil {
		t.Fatalf("failed cell should re-run on resume: %v", err)
	}
	if results[0].Resumed {
		t.Error("failed cell must not be replayed from checkpoint")
	}
}

// TestExperimentRegistry pins the registry against the CLI contract: every
// historical -exp name resolves, and faultsweep is present.
func TestExperimentRegistry(t *testing.T) {
	for _, name := range []string{
		"table4.1", "table7.1", "table8.1", "table8.2", "table9.1", "table10.1",
		"fig9.1", "fig9.2", "fig9.3", "taillats", "poc", "sensitivity",
		"cache-sweep", "hw-compare", "faultsweep", "relsec", "staticflow",
	} {
		if _, ok := FindExperiment(name); !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("bogus name resolved")
	}
}
