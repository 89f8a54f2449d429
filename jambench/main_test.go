package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// probeSetup re-executes itself to time set-up.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite golden.json from the entry points at the default seed and benchmark sizes")

// tinySizes keep each pass well under a second while every band check
// still holds: six datagrams let a jammed link reach its five-failure drop.
var tinySizes = sizes{
	detectFrames:  4,
	snrs:          []float64{-6, 4, 14},
	victimPackets: 6,
	attenuations:  []float64{10, 45},
	wimaxFrames:   10,
	streamSamples: 300_000,
	streamChunk:   4096,
}

// heldOutSeed is a seed no golden figure or size was chosen at.
const heldOutSeed = 7

func newInstance(t *testing.T, w workload, seed int64, sz sizes) instance {
	t.Helper()
	inst, err := w.new(seed, sz)
	if err != nil {
		t.Fatalf("%s: set up: %v", w.name, err)
	}
	if r, ok := inst.(interface{ reference() error }); ok {
		if err := r.reference(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	return inst
}

func runPass(t *testing.T, inst instance, width int, tr *tracer) result {
	t.Helper()
	if err := inst.prepare(width, tr); err != nil {
		t.Fatal(err)
	}
	res, err := inst.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplicasMatchEntryPoints runs every workload's traced replica against
// its entry point at the default and a held-out seed: the figures must be
// bit-identical and inside the paper's bands.
func TestReplicasMatchEntryPoints(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			inst := newInstance(t, w, seed, tinySizes)
			untraced := runPass(t, inst, 2, nil)
			tr := newTracer()
			traced := runPass(t, inst, 1, tr)
			if err := diffFigures(untraced.figures(), traced.figures()); err != nil {
				t.Errorf("%s seed %d: replica differs: %v", w.name, seed, err)
			}
			if _, failed, msgs := evaluate(untraced, nil); failed != 0 {
				t.Errorf("%s seed %d: %v", w.name, seed, msgs)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%s: %d spans left open", w.name, len(tr.stack))
			}
		}
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workload []struct{ Name string }               `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyOptions(t *testing.T, name string, trace int) options {
	return options{workload: name, seed: heldOutSeed, seconds: 1, trace: trace, out: t.TempDir(), sz: tinySizes}
}

func runTiny(t *testing.T, o options) *output {
	t.Helper()
	w, err := findWorkload(o.workload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runBenchmark(w, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricNamesMatchBenchmarkJSON checks BENCHMARK.json against the
// metric definitions and a real run of each mode against both.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	for i, want := range [][]metricDef{endToEndDefs, perLayerDefs()} {
		got := [][]struct{ Name, Unit, Better string }{f.EndToEnd, f.PerLayer}[i]
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark defines %d", len(got), len(want))
		}
		for j, d := range want {
			if g := got[j]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, benchmark defines %+v", j, g, d)
			}
		}
	}
	if len(f.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workload), len(workloads))
	}
	for i, w := range f.Workload {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the benchmark has %q", i, w.Name, workloads[i].name)
		}
	}

	for _, tc := range []struct {
		workload string
		trace    int
		defs     []metricDef
	}{
		{"jammer-stream", 0, endToEndDefs},
		{"victim-link", 1, perLayerDefs()},
	} {
		out := runTiny(t, tinyOptions(t, tc.workload, tc.trace))
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, %d of %d failed", tc.workload, tc.trace, out.Correct, out.Failed, out.Attempted)
		}
		if len(out.Metrics) != len(tc.defs) {
			t.Errorf("%s trace %d emits %d metrics, want %d", tc.workload, tc.trace, len(out.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			m, ok := out.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s trace %d: metric %s = %+v, want unit %s", tc.workload, tc.trace, d.name, m, d.unit)
			}
		}
		if tc.trace == 1 {
			if s := out.Metrics["other.share"].Value; s > 0.1 || s < -0.01 {
				t.Errorf("named layers cover %.1f%% of traced wall time, want ≥ 90%%", 100*(1-s))
			}
		}
	}
}

// TestGoldenPerturbationFails shows the golden comparison discriminates: a
// run matching its recorded figures has no failures, and changing one
// recorded figure makes that run fail.
func TestGoldenPerturbationFails(t *testing.T) {
	const name = "wimax-downlink"
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := newInstance(t, w, defaultSeed, tinySizes)
	figs := runPass(t, inst, 2, nil).figures()
	want := figs.asMap()
	o := tinyOptions(t, name, 0)
	o.seed = defaultSeed
	o.golden = map[string]map[string]string{name: want}
	if out := runTiny(t, o); !out.Correct || out.Failed != 0 {
		t.Fatalf("unperturbed golden: correct %v, %d of %d failed", out.Correct, out.Failed, out.Attempted)
	}
	want[figs[1].name] += "1"
	out := runTiny(t, o)
	if out.Correct || out.Failed == 0 {
		t.Fatalf("perturbed golden %s: correct %v, %d failed", figs[1].name, out.Correct, out.Failed)
	}
}

// TestGoldenFigures re-derives every workload's figures at the default
// seed and benchmark sizes and compares them with golden.json; -update
// rewrites the file.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at benchmark size")
	}
	g, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	rec := map[string]map[string]string{}
	for _, w := range workloads {
		res := runPass(t, newInstance(t, w, defaultSeed, benchSizes), 2, nil)
		if _, failed, msgs := evaluate(res, nil); failed != 0 {
			t.Errorf("%s: %v", w.name, msgs)
		}
		rec[w.name] = res.figures().asMap()
		if *update {
			continue
		}
		if _, failed, msgs := evaluate(res, g[w.name]); failed != 0 {
			t.Errorf("%s: %v", w.name, msgs)
		}
	}
	if *update {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUndisturbedDropsStolenPasses checks the pass filter keeps the passes
// the hypervisor left alone, and the least-stolen half when too few were.
func TestUndisturbedDropsStolenPasses(t *testing.T) {
	mk := func(stolen ...float64) []passStats {
		ps := make([]passStats, len(stolen))
		for i, s := range stolen {
			ps[i] = passStats{wall: float64(i), stolen: s}
		}
		return ps
	}
	walls := func(ps []passStats) []float64 {
		var w []float64
		for _, p := range ps {
			w = append(w, p.wall)
		}
		return w
	}
	for _, tc := range []struct {
		stolen []float64
		want   []float64
	}{
		{[]float64{0, 0.5, 0.01, 0.3, 0, 0}, []float64{0, 4, 5, 2}},
		{[]float64{0.4, 0.3, 0.2, 0.1, 0.5, 0.6}, []float64{3, 2, 1}},
		{[]float64{0.1, 0, 0.2}, []float64{1, 0, 2}},
	} {
		if got := walls(undisturbed(mk(tc.stolen...))); !slices.Equal(got, tc.want) {
			t.Errorf("stolen %v: kept passes %v, want %v", tc.stolen, got, tc.want)
		}
	}
}
