package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFIRIdentity(t *testing.T) {
	f := NewFIR([]float64{1})
	rng := rand.New(rand.NewSource(1))
	x := randSamples(rng, 32)
	y := f.Filter(x)
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-12 {
			t.Fatalf("identity filter changed sample %d", i)
		}
	}
}

func TestFIRDelay(t *testing.T) {
	f := NewFIR([]float64{0, 0, 1}) // pure 2-sample delay
	x := Samples{1, 2, 3, 4}
	y := f.Filter(x)
	want := Samples{0, 0, 1, 2}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("delay output %v, want %v", y, want)
		}
	}
}

func TestFIRStreamingMatchesBlock(t *testing.T) {
	taps := LowpassTaps(31, 0.2)
	rng := rand.New(rand.NewSource(2))
	x := randSamples(rng, 100)

	block := NewFIR(taps).Filter(x)

	stream := NewFIR(taps)
	var y Samples
	for _, chunk := range []Samples{x[:7], x[7:50], x[50:]} {
		y = append(y, stream.Filter(chunk)...)
	}
	for i := range block {
		if cmplx.Abs(block[i]-y[i]) > 1e-12 {
			t.Fatalf("streaming differs from block at %d", i)
		}
	}
}

func TestFIRReset(t *testing.T) {
	f := NewFIR([]float64{0.5, 0.5})
	f.ProcessSample(10)
	f.Reset()
	if y := f.ProcessSample(2); cmplx.Abs(y-1) > 1e-12 {
		t.Errorf("after reset got %v, want 1", y)
	}
}

func TestLowpassDCGain(t *testing.T) {
	taps := LowpassTaps(63, 0.1)
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("DC gain = %v, want 1", sum)
	}
}

func TestLowpassAttenuatesStopband(t *testing.T) {
	taps := LowpassTaps(63, 0.1)
	f := NewFIR(taps)
	// Passband tone at 0.02, stopband tone at 0.4.
	pass := f.Filter(Tone(512, 0.02, 1.0))[128:]
	f.Reset()
	stop := f.Filter(Tone(512, 0.4, 1.0))[128:]
	pdb := DB(pass.Power())
	sdb := DB(stop.Power())
	if pdb < -1 {
		t.Errorf("passband attenuation %v dB too high", pdb)
	}
	if sdb > -40 {
		t.Errorf("stopband rejection only %v dB", sdb)
	}
}

func TestLowpassTapsValidation(t *testing.T) {
	for _, cutoff := range []float64{0, 0.5, -0.1, 0.7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cutoff %v should panic", cutoff)
				}
			}()
			LowpassTaps(8, cutoff)
		}()
	}
}
