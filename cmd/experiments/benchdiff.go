package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// bench-diff compares a fresh measurement against a committed BENCH_*.json
// baseline and fails on regression. Two modes:
//
//   - full (default): 300 ms throughput windows with a 0.60 ratio floor,
//     plus exact comparison of every figure in the baseline — the figures
//     come from seeded experiments, so any difference is a behaviour
//     change, not noise.
//   - tolerant (-tolerant, used by `make ci`): 40 ms throughput windows
//     with a 0.35 ratio floor and no figure re-runs, sized so the check
//     fits a CI smoke budget and loaded machines cannot fail it spuriously
//     while a genuine order-of-magnitude datapath regression still trips.
//
// Both modes additionally gate the fresh block-over-scalar ratio: the fused
// block datapath must never lose to the per-sample path, so core_block /
// core_per_sample of the FRESH measurement (not the baseline) must stay at
// or above blockFloor — 1.0 in full mode, 0.9 tolerant to absorb the short
// window's noise.
// Full mode also gates experiment wall clock: each experiment that exists in
// the baseline must finish within wallCeiling times its recorded duration,
// catching large end-to-end slowdowns the kernel throughput ratios miss.
// Both modes also gate the fresh telemetry overhead: the live recorder plus
// fleet plane must cost at most overheadCeil percent of block throughput —
// 3% in full mode, loosened to 15% tolerant where the short window's noise
// dominates the measurement.
// Both modes also gate the fresh pipeline-over-sync ratio: the pipelined
// flowgraph scheduler must earn its rings. With more than one core, full
// mode requires it to at least match the synchronous scheduler (floor 1.0);
// on a single-core host parallelism cannot pay, so the floor relaxes to
// 0.85 — the rings may cost scheduling overhead but not more (the ratio
// measures 0.89–0.96 on the single-core CI box). Tolerant mode uses 0.8
// everywhere to absorb the short window's noise.
type benchDiffMode struct {
	window       time.Duration
	ratioFloor   float64
	blockFloor   float64
	pipeFloor    float64
	overheadCeil float64
	wallCeiling  float64
	figures      bool
	label        string
}

func benchDiffModeFor(tolerant bool) benchDiffMode {
	if tolerant {
		return benchDiffMode{window: 40 * time.Millisecond, ratioFloor: 0.35, blockFloor: 0.9, pipeFloor: 0.8, overheadCeil: 15, figures: false, label: "tolerant"}
	}
	pipeFloor := 1.0
	if runtime.GOMAXPROCS(0) == 1 {
		pipeFloor = 0.85
	}
	return benchDiffMode{window: 300 * time.Millisecond, ratioFloor: 0.60, blockFloor: 1.0, pipeFloor: pipeFloor, overheadCeil: 3, wallCeiling: 2.0, figures: true, label: "full"}
}

// runBenchDiff measures the current tree and diffs it against the baseline.
func runBenchDiff(baselinePath string, tolerant bool, frames, packets int) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench-diff: read baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench-diff: parse %s: %w", baselinePath, err)
	}
	// Re-run at the budgets the baseline was recorded with, when it says.
	if base.Frames > 0 {
		frames = base.Frames
	}
	if base.Packets > 0 {
		packets = base.Packets
	}
	mode := benchDiffModeFor(tolerant)
	fmt.Printf("bench-diff (%s) against %s (recorded %s, %s)\n",
		mode.label, baselinePath, base.Date, base.GoVersion)

	fresh := &BenchReport{Figures: map[string]float64{}}
	if err := throughputSection(fresh, mode.window); err != nil {
		return err
	}
	if err := fleetSection(fresh, mode.window); err != nil {
		return err
	}

	failures := 0
	for _, g := range benchGates(mode, &base, fresh) {
		if g.eval(os.Stdout) {
			failures++
		}
	}

	if mode.figures && len(base.Figures) > 0 {
		fmt.Printf("  re-running experiments for figure comparison (%d frames, %d packets)...\n",
			frames, packets)
		if err := experimentSection(fresh, frames, packets); err != nil {
			return err
		}
		for _, k := range sortedKeys(base.Figures) {
			bv := base.Figures[k]
			fv, ok := fresh.Figures[k]
			switch {
			case !ok:
				fmt.Printf("  FAIL %-28s baseline %g, fresh run did not produce it\n", k, bv)
				failures++
			case fv != bv:
				fmt.Printf("  FAIL %-28s baseline %g, fresh %g (seeded figure changed)\n", k, bv, fv)
				failures++
			default:
				fmt.Printf("  ok   %-28s %g\n", k, bv)
			}
		}

		// Experiment wall-clock ceiling against the baseline's recordings.
		baseWall := make(map[string]float64, len(base.Experiments))
		for _, e := range base.Experiments {
			baseWall[e.Name] = e.WallClockMS
		}
		for _, e := range fresh.Experiments {
			bw := baseWall[e.Name]
			if bw <= 0 {
				continue
			}
			ratio := e.WallClockMS / bw
			status := "ok  "
			if ratio > mode.wallCeiling {
				status = "FAIL"
				failures++
			}
			fmt.Printf("  %s %-28s %8.0f -> %8.0f ms  (%.2fx, ceiling %.2fx)\n",
				status, e.Name+" wall", bw, e.WallClockMS, ratio, mode.wallCeiling)
		}
	}
	if failures > 0 {
		return fmt.Errorf("bench-diff: %d regression(s) against %s", failures, baselinePath)
	}
	fmt.Println("  no regressions")
	return nil
}

// gateKind selects how a gate compares its fresh measurement.
type gateKind uint8

const (
	// vsBaseline gates fresh/base against a floor; the row is skipped (and
	// says so) when the baseline has no figure.
	vsBaseline gateKind = iota
	// freshFloor gates the fresh value against a floor; the row is silent
	// when the fresh run did not measure it (value ≤ 0).
	freshFloor
	// freshCeiling gates the fresh value against a ceiling.
	freshCeiling
)

// gate is one row of the bench-diff gate table. Its printed line is the
// status and the name followed by format applied to args, the gated value
// and the limit.
type gate struct {
	name   string
	kind   gateKind
	fresh  float64
	base   float64 // vsBaseline only
	limit  float64 // floor, or ceiling for freshCeiling
	format string
	args   []any
}

// benchGates is the gate table: the throughput ratios against the
// baseline, the fleet drill rate, and the fresh-side telemetry overhead,
// block-over-scalar and pipeline-over-sync gates. Cells/s is not Msps, but
// the same ratio floor catches the same order-of-magnitude regressions;
// the fresh-side gates hold regardless of the baseline (RunFlowPipe has
// already proved the two schedulers bit-identical before their ratio is
// measured).
func benchGates(mode benchDiffMode, base, fresh *BenchReport) []gate {
	b, f := &base.ThroughputMsps, &fresh.ThroughputMsps
	msps := func(name string, bv, fv float64) gate {
		return gate{name: name, kind: vsBaseline, fresh: fv, base: bv, limit: mode.ratioFloor,
			format: "%8.2f -> %8.2f Msps  (%.2fx, floor %.2fx)", args: []any{bv, fv}}
	}
	return []gate{
		msps("core_per_sample", b.CorePerSample, f.CorePerSample),
		msps("core_block", b.CoreBlock, f.CoreBlock),
		msps("core_block_parallel", b.CoreBlockParallel, f.CoreBlockParallel),
		msps("xcorr_packed", b.XCorrPacked, f.XCorrPacked),
		msps("xcorr_reference", b.XCorrReference, f.XCorrReference),
		msps("wifi_tx", b.WiFiTx, f.WiFiTx),
		msps("wifi_rx", b.WiFiRx, f.WiFiRx),
		msps("flow_sync", b.FlowSync, f.FlowSync),
		msps("flow_pipeline", b.FlowPipeline, f.FlowPipeline),
		{name: "fleet_cells_per_sec", kind: vsBaseline, fresh: fresh.FleetCellsPerSec,
			base: base.FleetCellsPerSec, limit: mode.ratioFloor,
			format: "%8.0f -> %8.0f cells/s  (%.2fx, floor %.2fx)",
			args:   []any{base.FleetCellsPerSec, fresh.FleetCellsPerSec}},
		{name: "telemetry_overhead_pct", kind: freshCeiling, fresh: fresh.TelemetryOverheadPct,
			limit: mode.overheadCeil, format: "%.2f%% of block throughput  (ceiling %.0f%%)"},
		{name: "block_over_scalar", kind: freshFloor, fresh: f.BlockOverScalar,
			limit: mode.blockFloor, format: "block %.2f / scalar %.2f = %.2fx  (floor %.2fx)",
			args: []any{f.CoreBlock, f.CorePerSample}},
		{name: "pipeline_over_sync", kind: freshFloor, fresh: f.PipelineOverSync,
			limit: mode.pipeFloor, format: "pipeline %.2f / sync %.2f = %.2fx  (floor %.2fx)",
			args: []any{f.FlowPipeline, f.FlowSync}},
	}
}

// eval prints the gate's line to w and reports whether the gate failed.
func (g gate) eval(w io.Writer) bool {
	v := g.fresh
	switch g.kind {
	case vsBaseline:
		if g.base <= 0 {
			fmt.Fprintf(w, "  skip %-22s baseline has no figure\n", g.name)
			return false
		}
		v = g.fresh / g.base
	case freshFloor:
		if !(v > 0) {
			return false
		}
	}
	failed := v < g.limit
	if g.kind == freshCeiling {
		failed = v > g.limit
	}
	status := "ok  "
	if failed {
		status = "FAIL"
	}
	args := append([]any{status, g.name}, g.args...)
	fmt.Fprintf(w, "  %s %-22s "+g.format+"\n", append(args, v, g.limit)...)
	return failed
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
