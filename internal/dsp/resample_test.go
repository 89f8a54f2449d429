package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestResamplerRatioReduced(t *testing.T) {
	r := NewResampler(10, 8, 8)
	l, m := r.Ratio()
	if l != 5 || m != 4 {
		t.Errorf("ratio = %d/%d, want 5/4", l, m)
	}
}

func TestResamplerOutputLength(t *testing.T) {
	cases := []struct{ l, m, in int }{
		{5, 4, 1000}, {4, 5, 1000}, {125, 57, 1140}, {1, 1, 500},
	}
	for _, c := range cases {
		out := Resample(make(Samples, c.in), c.l, c.m)
		want := c.in * c.l / c.m
		if got := len(out); got < want-2 || got > want+2 {
			t.Errorf("L/M=%d/%d: %d in -> %d out, want ~%d", c.l, c.m, c.in, got, want)
		}
	}
}

// growAllocs is what ProcessInto's up-front growth costs in allocations:
// one, or two under the race detector, whose instrumentation allocates the
// make that slices.Grow's append(s, make(...)...) otherwise elides
// (race_test.go).
var growAllocs = 1.0

// TestResamplerProcessIntoAllocs pins ProcessInto's growth: at most one
// allocation when dst is nil or too small for the call's outputs, and none
// when it has the room.
func TestResamplerProcessIntoAllocs(t *testing.T) {
	in := Tone(1000, 2e6, 20e6)
	for _, c := range []struct{ l, m int }{{5, 4}, {125, 56}, {4, 5}} {
		r := NewResampler(c.l, c.m, 8)
		if allocs := testing.AllocsPerRun(20, func() { r.ProcessInto(nil, in) }); allocs > growAllocs {
			t.Errorf("L/M=%d/%d: %v allocations into a nil dst, want at most %v", c.l, c.m, allocs, growAllocs)
		}
		short := make(Samples, 0, 16)
		if allocs := testing.AllocsPerRun(20, func() { r.ProcessInto(short, in) }); allocs > growAllocs {
			t.Errorf("L/M=%d/%d: %v allocations into a short dst, want at most %v", c.l, c.m, allocs, growAllocs)
		}
		big := make(Samples, 0, len(in)*c.l/c.m+1)
		if allocs := testing.AllocsPerRun(20, func() { r.ProcessInto(big, in) }); allocs != 0 {
			t.Errorf("L/M=%d/%d: %v allocations into a large enough dst, want 0", c.l, c.m, allocs)
		}
	}
}

// tonePeakBin returns the FFT bin with the most energy.
func tonePeakBin(x Samples, n int) int {
	buf := x[:n].Clone()
	FFT(buf)
	best, bestMag := 0, 0.0
	for k, v := range buf {
		if mag := cmplx.Abs(v); mag > bestMag {
			best, bestMag = k, mag
		}
	}
	return best
}

func TestResamplerPreservesToneFrequency(t *testing.T) {
	// A tone at 2 MHz sampled at 20 MSPS, resampled 5/4 to 25 MSPS, must
	// still sit at 2 MHz: bin 0.1*N before, bin 0.08*N after.
	in := Tone(4096, 2e6, 20e6)
	out := Resample(in, 5, 4)
	const n = 2048
	inBin := tonePeakBin(in[512:], n)
	outBin := tonePeakBin(out[512:], n)
	wantIn := int(math.Round(2e6 / 20e6 * n))
	wantOut := int(math.Round(2e6 / 25e6 * n))
	if abs(inBin-wantIn) > 1 {
		t.Errorf("input tone bin %d, want %d", inBin, wantIn)
	}
	if abs(outBin-wantOut) > 1 {
		t.Errorf("output tone bin %d, want %d", outBin, wantOut)
	}
}

func TestResamplerToneFrequencyProperty(t *testing.T) {
	f := func(freqSel uint8) bool {
		// In-band tone (below both Nyquists after 4/5 decimation).
		freq := (0.02 + 0.3*float64(freqSel)/255) * 20e6 / 2
		in := Tone(4096, freq, 20e6)
		out := Resample(in, 5, 4)
		const n = 2048
		got := tonePeakBin(out[512:], n)
		want := int(math.Round(freq / 25e6 * n))
		return abs(got-want) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResamplerStreamingSeamless(t *testing.T) {
	in := Tone(2000, 1e6, 20e6)
	whole := NewResampler(5, 4, 8).Process(in)
	r := NewResampler(5, 4, 8)
	var chunked Samples
	for i := 0; i < len(in); i += 137 {
		end := min(i+137, len(in))
		chunked = append(chunked, r.Process(in[i:end])...)
	}
	if len(whole) != len(chunked) {
		t.Fatalf("length mismatch: %d vs %d", len(whole), len(chunked))
	}
	for i := range whole {
		if cmplx.Abs(whole[i]-chunked[i]) > 1e-9 {
			t.Fatalf("chunked processing differs at %d", i)
		}
	}
}

func TestResamplerAmplitudePreserved(t *testing.T) {
	in := Tone(4096, 1e6, 20e6)
	out := Resample(in, 5, 4)
	// Skip filter transient, compare steady-state power (unit-power tone).
	p := out[256 : len(out)-16].Power()
	if math.Abs(p-1) > 0.05 {
		t.Errorf("resampled tone power %v, want ~1", p)
	}
}

func TestResamplerInvalidRatio(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ratio should panic")
		}
	}()
	NewResampler(0, 4, 8)
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int }{{12, 8, 4}, {25, 20, 5}, {7, 13, 1}, {5, 5, 5}}
	for _, c := range cases {
		if g := gcd(c.a, c.b); g != c.want {
			t.Errorf("gcd(%d,%d)=%d want %d", c.a, c.b, g, c.want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
