package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

// refResampler is the retained reference for Resampler.ProcessInto: the
// original streaming form, which slides a creeping history slice one sample
// per input (append, then drop the oldest) and skips the taps that reach
// before the first sample. It shares the polyphase banks of the resampler
// under test, so any difference is the fast path's alone.
type refResampler struct {
	l, m  int
	phase [][]float64
	hist  Samples
	acc   int
}

func newRefResampler(r *Resampler) *refResampler {
	return &refResampler{l: r.l, m: r.m, phase: r.phase}
}

func (r *refResampler) Reset() {
	r.hist = r.hist[:0]
	r.acc = 0
}

func (r *refResampler) Process(in Samples) Samples {
	tapsPerPhase := len(r.phase[0])
	out := make(Samples, 0, len(in)*r.l/r.m+1)
	for _, x := range in {
		r.hist = append(r.hist, x)
		if len(r.hist) > tapsPerPhase {
			r.hist = r.hist[1:]
		}
		for r.acc < r.l {
			out = append(out, r.dot(r.acc))
			r.acc += r.m
		}
		r.acc -= r.l
	}
	return out
}

func (r *refResampler) dot(p int) complex128 {
	var acc complex128
	n := len(r.hist)
	for k, c := range r.phase[p] {
		idx := n - 1 - k
		if idx < 0 {
			break
		}
		acc += r.hist[idx] * complex(c, 0)
	}
	return acc
}

// randomStream returns n finite samples spanning many magnitudes, with
// signed zeros and exact cancellations sprinkled in, so the differential
// exercises rounding and the sign of zero, not only typical values.
func randomStream(rng *rand.Rand, n int) Samples {
	out := make(Samples, n)
	for i := range out {
		scale := math.Ldexp(1, rng.Intn(40)-30)
		re, im := rng.NormFloat64()*scale, rng.NormFloat64()*scale
		switch rng.Intn(16) {
		case 0:
			re = 0
		case 1:
			im = math.Copysign(0, -1)
		case 2:
			re, im = 0, 0
		case 3:
			if i > 0 {
				re = -real(out[i-1])
			}
		}
		out[i] = complex(re, im)
	}
	return out
}

// TestResamplerProcessIntoMatchesReference pins the ring-history kernel
// ==-exact against the retained reference at every ratio the simulator
// uses (WiFi DDC/DUC, the WiMAX downlink rates, a 25/22 odd case), for any
// chunking of the stream, across a mid-stream Reset, at 8 and 5 taps per
// phase.
func TestResamplerProcessIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := randomStream(rng, 9000)
	resetAt := 5003
	for _, taps := range []int{8, 5} {
		for _, ratio := range [][2]int{{5, 4}, {4, 5}, {125, 56}, {125, 57}, {25, 22}} {
			for _, chunk := range []int{1, 7, 137, 4096, len(in)} {
				r := NewResampler(ratio[0], ratio[1], taps)
				ref := newRefResampler(r)
				var got, want Samples
				for i := 0; i < len(in); i += chunk {
					end := min(i+chunk, len(in))
					if i <= resetAt && resetAt < end {
						// Reset lands mid-chunk: split the chunk around it.
						got = r.ProcessInto(got, in[i:resetAt])
						want = append(want, ref.Process(in[i:resetAt])...)
						r.Reset()
						ref.Reset()
						i = resetAt
					}
					got = r.ProcessInto(got, in[i:end])
					want = append(want, ref.Process(in[i:end])...)
				}
				if len(got) != len(want) {
					t.Fatalf("%d taps %d/%d chunk %d: %d outputs, want %d",
						taps, ratio[0], ratio[1], chunk, len(got), len(want))
				}
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%d taps %d/%d chunk %d: out[%d] = %v, want %v",
							taps, ratio[0], ratio[1], chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// sameBits compares two samples bit for bit, so a signed-zero difference
// fails the differential too.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestResamplerProcessMatchesProcessInto keeps the allocating wrapper on
// the same stream as the append form.
func TestResamplerProcessMatchesProcessInto(t *testing.T) {
	in := randomStream(rand.New(rand.NewSource(3)), 2000)
	a, b := NewResampler(5, 4, 8), NewResampler(5, 4, 8)
	got := a.Process(in)
	want := b.ProcessInto(nil, in)
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestResamplerProcessIntoZeroAlloc(t *testing.T) {
	r := NewResampler(5, 4, 8)
	in := randomStream(rand.New(rand.NewSource(5)), 4096)
	dst := make(Samples, 0, len(in)*5/4+2)
	allocs := testing.AllocsPerRun(20, func() {
		dst = r.ProcessInto(dst[:0], in)
	})
	if allocs != 0 {
		t.Fatalf("warm ProcessInto allocates %v times per call, want 0", allocs)
	}
}

// TestResamplerNonFiniteStaysInRail pins the non-finite and full-scale
// semantics of the receive path ahead of the detectors: a ±Inf or NaN in
// one rail never reaches the other rail's resampled output or its 16-bit
// quantization, and a full-scale step saturates the quantizer instead of
// wrapping.
func TestResamplerNonFiniteStaysInRail(t *testing.T) {
	const n, hit = 64, 20
	base := randomStream(rand.New(rand.NewSource(8)), n)
	for i := range base {
		base[i] *= 0.1
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1, -1} {
		for _, rail := range []string{"I", "Q"} {
			in := base.Clone()
			if rail == "I" {
				in[hit] = complex(bad, imag(in[hit]))
			} else {
				in[hit] = complex(real(in[hit]), bad)
			}
			clean := NewResampler(5, 4, 8).Process(base)
			out := NewResampler(5, 4, 8).Process(in)
			iPlane, qPlane := make([]int16, len(out)), make([]int16, len(out))
			signs := make([]uint64, (len(out)+63)/64)
			fixed.QuantizeFused(out, iPlane, qPlane, signs, make([]uint64, len(signs)))
			for i, v := range out {
				hitRe, hitIm, cleanIm := real(v), imag(v), imag(clean[i])
				if rail == "Q" {
					hitRe, hitIm, cleanIm = imag(v), real(v), real(clean[i])
				}
				// The other rail is untouched, bit for bit.
				if math.Float64bits(hitIm) != math.Float64bits(cleanIm) {
					t.Fatalf("%v in %s: other rail out[%d] = %v, want %v", bad, rail, i, hitIm, cleanIm)
				}
				want := fixed.Quantize(clean[i])
				got := fixed.IQ{I: iPlane[i], Q: qPlane[i]}
				other, otherWant := got.Q, want.Q
				if rail == "Q" {
					other, otherWant = got.I, want.I
				}
				if other != otherWant {
					t.Fatalf("%v in %s: other rail quantized to %d at %d, want %d", bad, rail, other, i, otherWant)
				}
				if fixed.Quantize(v) != got {
					t.Fatalf("%v in %s: fused quantizer %v differs from Quantize %v at %d",
						bad, rail, got, fixed.Quantize(v), i)
				}
				// The hit rail: ±Inf saturates to the int16 rail it points
				// at; a full-scale step rings past ±1.0 and saturates.
				hq := got.I
				if rail == "Q" {
					hq = got.Q
				}
				switch {
				case math.IsInf(hitRe, 1) && hq != math.MaxInt16,
					math.IsInf(hitRe, -1) && hq != math.MinInt16,
					hitRe >= 1 && hq != math.MaxInt16,
					hitRe <= -1 && hq > -math.MaxInt16:
					t.Fatalf("%v in %s: out[%d] = %v quantized to %d", bad, rail, i, hitRe, hq)
				}
			}
			// The hit sample sits in the window for 8 inputs, so at least
			// one output around it must carry a non-finite or saturated
			// value: the fault is not silently dropped either.
			seen := false
			for _, v := range out {
				x := real(v)
				if rail == "Q" {
					x = imag(v)
				}
				if math.IsInf(x, 0) || math.IsNaN(x) || math.Abs(x) >= 0.5 {
					seen = true
				}
			}
			if !seen {
				t.Fatalf("%v in %s: no output carries the fault", bad, rail)
			}
		}
	}
}

// BenchmarkResampler times the 20→25 MSPS DDC on a reused output buffer
// (ProcessInto) against the retained reference, at a packet-sized block and
// at the 2M-sample false-alarm calibration stream.
func BenchmarkResampler(b *testing.B) {
	for _, n := range []int{1 << 10, 2_000_000} {
		in := randomStream(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprintf("into/n=%d", n), func(b *testing.B) {
			r := NewResampler(5, 4, 8)
			dst := make(Samples, 0, n*5/4+2)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = r.ProcessInto(dst[:0], in)
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			r := newRefResampler(NewResampler(5, 4, 8))
			b.ReportAllocs()
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				r.Process(in)
			}
		})
	}
}
