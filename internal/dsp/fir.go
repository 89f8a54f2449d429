package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite impulse response filter over complex samples with real
// coefficients. The zero value is unusable; construct with NewFIR. FIR keeps
// per-instance delay-line state so it can filter a sample stream
// incrementally (ProcessSample) or a whole buffer at once (Filter).
type FIR struct {
	taps  []float64
	delay Samples // circular delay line, len == len(taps)
	pos   int
}

// NewFIR returns a streaming FIR filter with the given tap coefficients.
func NewFIR(taps []float64) *FIR {
	if len(taps) == 0 {
		panic("dsp: NewFIR with no taps")
	}
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t, delay: make(Samples, len(taps))}
}

// Reset clears the delay line.
func (f *FIR) Reset() {
	for i := range f.delay {
		f.delay[i] = 0
	}
	f.pos = 0
}

// ProcessSample pushes one input sample and returns one output sample.
func (f *FIR) ProcessSample(x complex128) complex128 {
	f.delay[f.pos] = x
	var acc complex128
	idx := f.pos
	for _, t := range f.taps {
		acc += f.delay[idx] * complex(t, 0)
		idx--
		if idx < 0 {
			idx = len(f.delay) - 1
		}
	}
	f.pos++
	if f.pos == len(f.delay) {
		f.pos = 0
	}
	return acc
}

// Filter runs the whole buffer through the filter, returning a buffer of the
// same length. The filter state persists across calls.
func (f *FIR) Filter(x Samples) Samples {
	out := make(Samples, len(x))
	f.FilterInto(out, x)
	return out
}

// FilterInto filters x into dst (which must be at least len(x) long) without
// allocating. dst and x may be the same slice: each output sample is written
// only after the corresponding input sample has entered the delay line.
func (f *FIR) FilterInto(dst, x Samples) {
	for i, v := range x {
		dst[i] = f.ProcessSample(v)
	}
}

// LowpassTaps designs a windowed-sinc lowpass filter with the given number
// of taps and normalized cutoff (cutoff = fc/fs, 0 < cutoff < 0.5), using a
// Hamming window. Taps are normalized to unit DC gain.
func LowpassTaps(numTaps int, cutoff float64) []float64 {
	if numTaps < 1 {
		panic("dsp: LowpassTaps needs at least 1 tap")
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		panic(fmt.Sprintf("dsp: lowpass cutoff %v out of (0, 0.5)", cutoff))
	}
	taps := make([]float64, numTaps)
	m := float64(numTaps - 1)
	var sum float64
	for i := range taps {
		n := float64(i) - m/2
		var s float64
		if n == 0 {
			s = 2 * cutoff
		} else {
			s = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/m)
		if numTaps == 1 {
			w = 1
		}
		taps[i] = s * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}
