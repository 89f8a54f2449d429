package core

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

// Allocation and pooling guards for the block datapath: after scratch
// warm-up, ProcessBlock must run allocation-free in steady state — with the
// default no-op recorder and with a live journal attached.

func TestProcessBlockZeroAllocNop(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	input := parityInput()
	tx := make([]complex128, len(input))
	c.ProcessBlock(input, tx) // warm up scratch planes

	if avg := testing.AllocsPerRun(20, func() {
		c.ProcessBlock(input, tx)
	}); avg != 0 {
		t.Fatalf("ProcessBlock (nop recorder) allocates %.1f per call in steady state", avg)
	}
}

func TestProcessBlockZeroAllocLive(t *testing.T) {
	c := New()
	programEnergyHigh(t, c, 100)
	live := telemetry.NewLive(telemetry.DefaultJournalDepth)
	c.SetRecorder(live)
	input := parityInput() // engagement-bearing: bursts open and close
	tx := make([]complex128, len(input))
	c.ProcessBlock(input, tx)

	if avg := testing.AllocsPerRun(20, func() {
		c.ProcessBlock(input, tx)
	}); avg != 0 {
		t.Fatalf("ProcessBlock (live recorder) allocates %.1f per call in steady state", avg)
	}
}

// nonFiniteInput returns parityInput with non-finite and overshooting
// samples planted in quiet spans, inside bursts and on sign-word edges:
// ±Inf, NaN in I only, NaN in Q only, and values past full scale.
func nonFiniteInput() []complex128 {
	inf, nan := math.Inf(1), math.NaN()
	bad := []complex128{
		complex(inf, 0), complex(-inf, 0), complex(0, inf), complex(0, -inf),
		complex(nan, 0.2), complex(-0.2, nan),
		complex(1.5, -1.5), complex(-40, 3), complex(1e300, -1e300),
	}
	input := parityInput()
	for k, at := range []int{0, 63, 64, 65, 127, 300, 640, 700, 1000, 1900, 2000, 2100, len(input) - 1} {
		for j := 0; j < 3 && at+j < len(input); j++ {
			input[at+j] = bad[(k+j)%len(bad)]
		}
	}
	return input
}

// TestProcessBlockNonFiniteParity pins ProcessBlock to ProcessSample on
// non-finite and full-scale-overshoot input at the sign-word boundary block
// lengths, with the no-op and a live recorder: the quantizer must keep a
// bad rail in its own rail and saturate it exactly as the scalar path does.
func TestProcessBlockNonFiniteParity(t *testing.T) {
	input := nonFiniteInput()
	for _, live := range []bool{false, true} {
		ref := New()
		fuzzProgram(t, ref)
		want := make([]complex128, len(input))
		for i, s := range input {
			want[i] = ref.ProcessSample(s)
		}
		if ref.Stats().JamSamples == 0 {
			t.Fatal("reference run never jammed")
		}
		for _, bs := range []int{1, 63, 64, 65} {
			c := New()
			fuzzProgram(t, c)
			if live {
				c.SetRecorder(telemetry.NewLive(telemetry.DefaultJournalDepth))
			}
			got := make([]complex128, len(input))
			for pos := 0; pos < len(input); pos += bs {
				end := min(pos+bs, len(input))
				c.ProcessBlock(input[pos:end], got[pos:end])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("live %v, block %d: tx[%d] = %v, want %v (input %v)",
						live, bs, i, got[i], want[i], input[i])
				}
			}
			if gs, ws := c.Stats(), ref.Stats(); gs != ws {
				t.Fatalf("live %v, block %d: stats %+v, want %+v", live, bs, gs, ws)
			}
		}
	}
}
