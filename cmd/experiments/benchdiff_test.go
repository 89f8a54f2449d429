package main

import (
	"io"
	"math"
	"strings"
	"testing"
)

// TestBenchGatesTripJustPastLimit drives every row of the gate table, in
// both modes, to exactly its limit (which must pass) and one ulp past it
// on the failing side (which must fail).
func TestBenchGatesTripJustPastLimit(t *testing.T) {
	for _, tolerant := range []bool{false, true} {
		mode := benchDiffModeFor(tolerant)
		gates := benchGates(mode, &BenchReport{}, &BenchReport{})
		if len(gates) != 13 {
			t.Fatalf("%s: %d gates, want 13", mode.label, len(gates))
		}
		for _, g := range gates {
			// A power-of-two baseline keeps fresh/base exact.
			g.base = 4
			at := g.limit
			if g.kind == vsBaseline {
				at = g.limit * g.base
			}
			past := math.Nextafter(at, math.Inf(-1))
			if g.kind == freshCeiling {
				past = math.Nextafter(at, math.Inf(1))
			}
			g.fresh = at
			if g.eval(io.Discard) {
				t.Errorf("%s %s: fails at its limit %v", mode.label, g.name, g.limit)
			}
			g.fresh = past
			if !g.eval(io.Discard) {
				t.Errorf("%s %s: passes just past its limit %v (fresh %v)", mode.label, g.name, g.limit, past)
			}
		}
	}
}

// TestBenchGatesSkipRules pins the rows that print nothing or a skip line:
// a ratio gate whose baseline lacks the figure, and a fresh-side floor the
// fresh run did not measure.
func TestBenchGatesSkipRules(t *testing.T) {
	var out strings.Builder
	for _, g := range benchGates(benchDiffModeFor(false), &BenchReport{}, &BenchReport{}) {
		if g.eval(&out) {
			t.Errorf("%s failed on an empty report", g.name)
		}
	}
	got := out.String()
	for _, want := range []string{
		"  skip core_per_sample        baseline has no figure\n",
		"  skip fleet_cells_per_sec    baseline has no figure\n",
		"  ok   telemetry_overhead_pct 0.00% of block throughput  (ceiling 3%)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "block_over_scalar") || strings.Contains(got, "pipeline_over_sync") {
		t.Errorf("unmeasured fresh-side gates printed a line:\n%s", got)
	}
}
