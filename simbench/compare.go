package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchMetric is one end-to-end entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchmark(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadRuns reads run records from a runs.jsonl file or a directory holding
// one.
func loadRuns(path string) ([]record, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "runs.jsonl")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one side's untraced runs of one workload.
type side struct {
	vals                 map[string][]float64
	runs, incorrect      int
	digests              map[string]int
	attempted, failedOps uint64
}

func collect(runs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{vals: map[string][]float64{}, digests: map[string]int{}}
			out[r.Workload] = s
		}
		s.runs++
		if !r.Correct {
			s.incorrect++
		}
		s.attempted += r.Attempted
		s.failedOps += r.Failed
		s.digests[r.Digest]++
		for name, m := range r.Metrics {
			s.vals[name] = append(s.vals[name], m.Value)
		}
	}
	return out
}

// verdict compares one metric's runs: "worse" when B's median is past the
// bound in the bad direction, "unresolved" when either side's spread
// (interquartile range over median) is wider than the bound and B does not
// beat A on every run, else "ok".
func verdict(m benchMetric, a, b []float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := ratio(mb-ma, math.Abs(ma))
	bad := change
	if m.Better == "higher" {
		bad = -change
	}
	if bad > m.Bound {
		return "worse", change
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if !allBetter(m, a, b) {
			return "unresolved", change
		}
	}
	return "ok", change
}

func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(q2))
}

func allBetter(m benchMetric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && y <= x) || (m.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// compare prints, per workload and end-to-end metric, both sides' median
// and spread and a verdict, then per-scheme sim-MIPS for information. It
// reports whether any metric got worse.
func compare(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	ra, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	A, B := collect(ra), collect(rb)
	names := map[string]bool{}
	for n := range A {
		names[n] = true
	}
	for n := range B {
		names[n] = true
	}
	worse := false
	fmt.Fprintf(w, "%-16s %-26s %12s %8s %12s %8s %8s  %s\n",
		"workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "change%", "verdict")
	for _, wl := range sortedKeys(names) {
		a, b := A[wl], B[wl]
		if a == nil || b == nil {
			fmt.Fprintf(w, "%-16s only on one side\n", wl)
			continue
		}
		rows := append([]benchMetric(nil), bf.EndToEnd...)
		for _, s := range schemeNames {
			rows = append(rows, benchMetric{Name: "cpu.sim_mips." + s, Better: "higher", Bound: math.Inf(1)})
		}
		for _, m := range rows {
			va, vb := a.vals[m.Name], b.vals[m.Name]
			if len(va) == 0 || len(vb) == 0 || slices.Max(va) == 0 && slices.Max(vb) == 0 {
				continue // not measured on this workload
			}
			v, change := verdict(m, va, vb)
			if math.IsInf(m.Bound, 1) {
				v = "no bound"
			}
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-16s %-26s %12.6g %8.2f %12.6g %8.2f %8.2f  %s\n",
				wl, m.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*change, v)
		}
		fmt.Fprintf(w, "%-16s runs A %d (%d incorrect, %d/%d ops failed), B %d (%d incorrect, %d/%d ops failed)\n",
			wl, a.runs, a.incorrect, a.failedOps, a.attempted, b.runs, b.incorrect, b.failedOps, b.attempted)
		fmt.Fprintf(w, "%-16s sim_digest A %s, B %s\n", wl, digestList(a.digests), digestList(b.digests))
	}
	return worse, nil
}

func digestList(m map[string]int) string {
	var parts []string
	for _, d := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s×%d", d, m[d]))
	}
	return strings.Join(parts, " ")
}
