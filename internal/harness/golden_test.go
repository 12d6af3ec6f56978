package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schemes"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when -update is passed (go test ./internal/harness/ -run Golden -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		i := 0
		for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
			i++
		}
		t.Errorf("%s: rendered report drifted from golden at line %d (got %d lines, want %d)\n got: %q\nwant: %q\n(-update rewrites the golden; git diff shows the whole change)",
			name, i+1, len(g), len(w), lineAt(g, i), lineAt(w, i))
	}
}

func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}

// The fixtures below are hand-built cells, not live runs: the goldens pin
// the renderers' formatting and ordering, independent of simulator timing.

func goldenKinds() []schemes.Kind {
	return []schemes.Kind{schemes.Unsafe, schemes.DOM, schemes.Perspective}
}

func TestGoldenPrintFig92(t *testing.T) {
	cells := []LEBenchCell{
		{Test: "getpid", Scheme: schemes.Unsafe, Cycles: 1000, Normalized: 1.0},
		{Test: "getpid", Scheme: schemes.DOM, Cycles: 1800, Normalized: 1.8},
		{Test: "getpid", Scheme: schemes.Perspective, Cycles: 1100, Normalized: 1.1},
		{Test: "small-read", Scheme: schemes.Unsafe, Cycles: 2000, Normalized: 1.0},
		{Test: "small-read", Scheme: schemes.DOM, Cycles: 4100, Normalized: 2.05},
		{Test: "small-read", Scheme: schemes.Perspective, Cycles: 2240, Normalized: 1.12,
			HandlerFaults: 2},
		{Test: "big-fork", Scheme: schemes.Unsafe, Cycles: 9000, Normalized: 1.0},
		{Test: "big-fork", Scheme: schemes.DOM, Err: "fig9.2/DOM/big-fork: machine wedged"},
		{Test: "big-fork", Scheme: schemes.Perspective, Cycles: 9900, Normalized: 1.1},
	}
	var buf bytes.Buffer
	PrintFig92(&buf, cells, goldenKinds())
	checkGolden(t, "fig92", buf.Bytes())
}

func TestGoldenPrintFig93(t *testing.T) {
	cells := []AppCell{
		{App: "nginx", Scheme: schemes.Unsafe, KernelCycles: 5e4, TotalCycles: 1e5,
			RPS: 30000, NormThroughput: 1.0},
		{App: "nginx", Scheme: schemes.DOM, KernelCycles: 9e4, TotalCycles: 1.4e5,
			RPS: 21428, NormThroughput: 0.714},
		{App: "nginx", Scheme: schemes.Perspective, KernelCycles: 5.6e4, TotalCycles: 1.06e5,
			RPS: 28301, NormThroughput: 0.943},
		{App: "redis", Scheme: schemes.Unsafe, KernelCycles: 3e4, TotalCycles: 6e4,
			RPS: 50000, NormThroughput: 1.0},
		{App: "redis", Scheme: schemes.DOM, KernelCycles: 5.7e4, TotalCycles: 8.7e4,
			RPS: 34482, NormThroughput: 0.69},
		{App: "redis", Scheme: schemes.Perspective, Err: "fig9.3/PERSPECTIVE/redis: cell timed out"},
	}
	var buf bytes.Buffer
	PrintFig93(&buf, cells, goldenKinds())
	checkGolden(t, "fig93", buf.Bytes())
}

func TestGoldenPrintTailLats(t *testing.T) {
	rep := &TailReport{
		Fleet:    4,
		Requests: 1_000_000,
		Rho:      0.35,
		Cells: []TailCell{
			{App: "httpd", Scheme: schemes.Unsafe, P50: 1800, P99: 8200, P999: 11500,
				P50X: 1, P99X: 1, P999X: 1},
			{App: "httpd", Scheme: schemes.DOM, P50: 1900, P99: 9000, P999: 13100,
				P50X: 1.06, P99X: 1.10, P999X: 1.14},
			{App: "httpd", Scheme: schemes.Perspective, P50: 1850, P99: 8500, P999: 12000,
				P50X: 1.03, P99X: 1.04, P999X: 1.04},
			{App: "redis", Scheme: schemes.Unsafe, P50: 1500, P99: 7000, P999: 9800,
				P50X: 1, P99X: 1, P999X: 1},
			{App: "redis", Scheme: schemes.DOM, P50: 1700, P99: 8900, P999: 14800,
				P50X: 1.13, P99X: 1.27, P999X: 1.51, HandlerFaults: 3},
			{App: "redis", Scheme: schemes.Perspective,
				Err: "UNSAFE calibration failed for redis: probe 7: machine wedged"},
		},
	}
	var buf bytes.Buffer
	PrintTailLats(&buf, rep, goldenKinds())
	checkGolden(t, "taillats", buf.Bytes())
}

func TestGoldenPrintTable81(t *testing.T) {
	rows := []SurfaceRow{
		{Workload: "LEBench", StaticPct: 62.4, DynamicPct: 91.3, StaticFuncs: 451, DynFuncs: 104},
		{Workload: "nginx", StaticPct: 58.0, DynamicPct: 89.9, StaticFuncs: 504, DynFuncs: 121},
	}
	var buf bytes.Buffer
	PrintTable81(&buf, rows, 1200)
	checkGolden(t, "table81", buf.Bytes())
}

func TestGoldenPrintTable82(t *testing.T) {
	rows := []GadgetRow{
		{Workload: "LEBench", Blocked: [3][3]float64{
			{55.5, 60.1, 58.2}, {90.0, 92.5, 91.1}, {96.4, 97.0, 95.8}}},
		{Workload: "redis", Blocked: [3][3]float64{
			{50.2, 57.7, 54.0}, {88.3, 90.9, 89.5}, {95.1, 96.2, 94.7}}},
	}
	var buf bytes.Buffer
	PrintTable82(&buf, rows, 300)
	checkGolden(t, "table82", buf.Bytes())
}

func TestGoldenPrintTable101(t *testing.T) {
	rows := []FenceRow{
		{Workload: "LEBench", Variant: schemes.PerspectiveStatic,
			ISVShare: 0.81, DSVShare: 0.19, FencesPKI: 14.20, ISVPKI: 11.50, DSVPKI: 2.70},
		{Workload: "LEBench", Variant: schemes.Perspective,
			ISVShare: 0.42, DSVShare: 0.58, FencesPKI: 4.60, ISVPKI: 1.93, DSVPKI: 2.67},
		{Workload: "LEBench", Variant: schemes.PerspectivePlus,
			ISVShare: 0.12, DSVShare: 0.88, FencesPKI: 3.05, ISVPKI: 0.37, DSVPKI: 2.68},
	}
	var buf bytes.Buffer
	PrintTable101(&buf, rows)
	checkGolden(t, "table101", buf.Bytes())
}

func TestGoldenPrintStaticFlow(t *testing.T) {
	rep := &StaticFlowReport{
		Funcs: 2590, Insts: 31876, Rounds: 6,
		StaticFindings: 164, StaticMDS: 81, StaticPort: 51, StaticCache: 32,
		DynFindings: 112, DynMDS: 55, DynPort: 34, DynCache: 23,
		MissingDyn: 0, StaticOnly: 52,
		WitnessGadget: "xusb_ioctl_gadget", WitnessPC: 0xffffffff810005e4,
		WitnessFlagged: true,
		StaticSites:    163, DynIters: 163, DynSites: 1450, BlanketSites: 13883,
		VerifyGadgets: 162, VerifyDiverged: 0,
		UnsafeCycles: 1000, StaticCycles: 1004, DynamicCycles: 1004, BlanketCycles: 1080,
	}
	var buf bytes.Buffer
	PrintStaticFlow(&buf, rep)
	checkGolden(t, "staticflow", buf.Bytes())
}

func TestGoldenPrintFig91(t *testing.T) {
	rows := []SpeedupRow{
		{Workload: "LEBench", Unbounded: 12.5, Bounded: 48.9, Speedup: 3.91},
		{Workload: "nginx", Unbounded: 12.5, Bounded: 40.1, Speedup: 3.21},
	}
	var buf bytes.Buffer
	PrintFig91(&buf, rows)
	checkGolden(t, "fig91", buf.Bytes())
}

func TestGoldenPrintPoCMatrix(t *testing.T) {
	rows := []PoCRow{
		{Attack: "active-spectre-v1", Scheme: schemes.Unsafe, Leaked: 4, Total: 4},
		{Attack: "active-spectre-v1", Scheme: schemes.Perspective, Leaked: 0, Total: 4, Blocked: true},
		{Attack: "passive-retbleed", Scheme: schemes.Unsafe, Leaked: 4, Total: 4},
		{Attack: "passive-retbleed", Scheme: schemes.Perspective, Leaked: 0, Total: 4, Blocked: true},
	}
	var buf bytes.Buffer
	PrintPoCMatrix(&buf, rows)
	checkGolden(t, "pocmatrix", buf.Bytes())
}
