package dsp

import (
	"fmt"
	"slices"
)

// Resampler converts a sample stream between two rates by rational
// interpolation L / decimation M with a polyphase anti-aliasing lowpass.
// It is how the simulator reproduces the paper's central rate mismatch: WiFi
// frames are generated at 20 MSPS per 802.11g, while the jammer's receive
// chain is fixed at 25 MSPS (L/M = 5/4), and the Fig. 12 WiMAX downlink radio
// at 11.2 MSPS becomes L/M = 125/56 (the paper's nominal 11.4 MSPS would be
// 125/57).
//
// The taps are real, so each rail is filtered on its own: the I output is a
// dot product of the I history alone, the Q output of the Q history alone.
// A non-finite sample (±Inf or NaN) in one rail therefore stays in that rail
// for as long as it sits in the filter window; it does not leak into the
// other rail the way a complex multiply by complex(c, 0) would (Inf·0 = NaN).
type Resampler struct {
	l, m  int
	taps  []float64
	phase [][]float64 // polyphase banks, phase[p][k] multiplies x[n-k]
	// ring holds the last tapsPerPhase inputs twice over: each sample is
	// written at w and w+tapsPerPhase, so ring[w+1 : w+1+tapsPerPhase] is
	// always the contiguous window, oldest first. It starts zeroed.
	ring Samples
	w    int // ring write position in [0, tapsPerPhase)
	acc  int // output phase accumulator
}

// NewResampler creates an L/M rational resampler. tapsPerPhase controls
// filter quality (8 is a good default; higher is sharper and slower).
func NewResampler(l, m, tapsPerPhase int) *Resampler {
	if l <= 0 || m <= 0 {
		panic(fmt.Sprintf("dsp: invalid resampler ratio %d/%d", l, m))
	}
	if tapsPerPhase < 2 {
		tapsPerPhase = 2
	}
	g := gcd(l, m)
	l, m = l/g, m/g
	numTaps := l * tapsPerPhase
	// Cut off at the narrower of the input and output Nyquist rates.
	cutoff := 0.5 / float64(max(l, m))
	taps := LowpassTaps(numTaps, cutoff*0.9)
	// The interpolator inserts L-1 zeros, so scale gain by L to preserve
	// signal amplitude through the zero-stuffed lowpass.
	for i := range taps {
		taps[i] *= float64(l)
	}
	phase := make([][]float64, l)
	for p := 0; p < l; p++ {
		var bank []float64
		for i := p; i < numTaps; i += l {
			bank = append(bank, taps[i])
		}
		phase[p] = bank
	}
	return &Resampler{l: l, m: m, taps: taps, phase: phase,
		ring: make(Samples, 2*tapsPerPhase)}
}

// Ratio returns the reduced interpolation and decimation factors.
func (r *Resampler) Ratio() (l, m int) { return r.l, r.m }

// GroupDelayOutputSamples returns the anti-aliasing filter's group delay in
// output-rate samples. The lowpass is linear-phase, so its delay is exactly
// (numTaps-1)/2 positions of the virtual upsampled stream, which advances M
// positions per output sample.
func (r *Resampler) GroupDelayOutputSamples() float64 {
	return float64(len(r.taps)-1) / float64(2*r.m)
}

// Reset clears filter state.
func (r *Resampler) Reset() {
	clear(r.ring)
	r.w = 0
	r.acc = 0
}

// Process consumes a block of input samples and returns the resampled
// output in a fresh buffer. Streaming state is preserved across calls so
// that consecutive blocks are seamless.
func (r *Resampler) Process(in Samples) Samples {
	return r.ProcessInto(nil, in)
}

// ProcessInto resamples in and appends the output to dst, returning the
// extended slice: the allocation-free form of Process for callers that own
// and reuse their output buffer. When dst lacks the capacity it grows once,
// up front, by the most outputs len(in) inputs can emit, so a call
// allocates at most once. Streaming state carries across calls exactly as
// in Process.
func (r *Resampler) ProcessInto(dst, in Samples) Samples {
	dst = slices.Grow(dst, len(in)*r.l/r.m+1)
	t := len(r.phase[0])
	ring, w, acc := r.ring, r.w, r.acc
	for _, x := range in {
		ring[w] = x
		ring[w+t] = x
		win := ring[w+1 : w+1+t]
		if w++; w == t {
			w = 0
		}
		// Each input sample advances the virtual upsampled stream by L
		// positions; emit an output whenever the accumulator crosses M.
		for ; acc < r.l; acc += r.m {
			dst = append(dst, dot(win, r.phase[acc]))
		}
		acc -= r.l
	}
	r.w, r.acc = w, acc
	return dst
}

// dot filters the window (oldest first) through one polyphase bank, tap k
// against the k-th newest sample, k ascending. The float64 conversions
// round each product before the add, so no architecture may fuse them into
// an FMA and the result is the same everywhere.
func dot(win Samples, bank []float64) complex128 {
	win = win[:len(bank)]
	var re, im float64
	for k, c := range bank {
		x := win[len(win)-1-k]
		re += float64(real(x) * c)
		im += float64(imag(x) * c)
	}
	return complex(re, im)
}

// Resample is a convenience wrapper that resamples a whole buffer with a
// fresh L/M resampler and returns the result.
func Resample(in Samples, l, m int) Samples {
	return NewResampler(l, m, 8).Process(in)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
