package wifi

import (
	"fmt"
	"math"
)

// Soft-decision demapping: instead of hard-slicing each equalized
// subcarrier to unit LLRs, the demapper emits max-log log-likelihood ratios
// and the Viterbi decoder accumulates them, buying roughly 2 dB over hard
// decisions on AWGN and substantially more resilience when a jamming burst
// corrupts a contiguous run of symbols. The paper's receivers are
// commodity hardware (hard or soft unknown); DemodulateSoft exists as the
// "improved victim" ablation — how much harder does a soft receiver make
// the jammer's job?

// llrClip bounds the integer LLR magnitude.
const llrClip = 31

func clipLLR(v float64) LLR {
	switch {
	case v > llrClip:
		return llrClip
	case v < -llrClip:
		return -llrClip
	default:
		return LLR(math.Round(v))
	}
}

// pamLLR computes the max-log LLR of bit index b (MSB first within the PAM
// label) for an observed PAM coordinate v over levels with Gray labels, at
// a noise scale that normalizes typical magnitudes into the clip range.
func pamLLR(v float64, levels []float64, labels []uint8, bit int, scale float64) LLR {
	best0, best1 := math.Inf(1), math.Inf(1)
	for i, lv := range levels {
		d := (v - lv) * (v - lv)
		if labels[i]>>bit&1 == 0 {
			if d < best0 {
				best0 = d
			}
		} else if d < best1 {
			best1 = d
		}
	}
	return clipLLR((best1 - best0) * scale)
}

// PAM constellations in Gray-label order matching modulation.go.
var (
	pam2Levels = []float64{-1, 1}
	pam2Labels = []uint8{0, 1}
	pam4Levels = []float64{-3, -1, 1, 3}
	pam4Labels = []uint8{0b00, 0b01, 0b11, 0b10}
	pam8Levels = []float64{-7, -5, -3, -1, 1, 3, 5, 7}
	pam8Labels = []uint8{0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100}
)

// DemapSoft produces the constellation's LLRs for one equalized point,
// appended to dst. Bit order matches Demap.
func (c Constellation) DemapSoft(p complex128, dst []LLR) []LLR {
	k := kmod[c]
	re, im := real(p)/k, imag(p)/k
	switch c {
	case BPSK:
		return append(dst, pamLLR(re, pam2Levels, pam2Labels, 0, 8))
	case QPSK:
		return append(dst,
			pamLLR(re, pam2Levels, pam2Labels, 0, 8),
			pamLLR(im, pam2Levels, pam2Labels, 0, 8))
	case QAM16:
		return append(dst,
			pamLLR(re, pam4Levels, pam4Labels, 1, 4),
			pamLLR(re, pam4Levels, pam4Labels, 0, 4),
			pamLLR(im, pam4Levels, pam4Labels, 1, 4),
			pamLLR(im, pam4Levels, pam4Labels, 0, 4))
	case QAM64:
		return append(dst,
			pamLLR(re, pam8Levels, pam8Labels, 2, 2),
			pamLLR(re, pam8Levels, pam8Labels, 1, 2),
			pamLLR(re, pam8Levels, pam8Labels, 0, 2),
			pamLLR(im, pam8Levels, pam8Labels, 2, 2),
			pamLLR(im, pam8Levels, pam8Labels, 1, 2),
			pamLLR(im, pam8Levels, pam8Labels, 0, 2))
	default:
		panic(fmt.Sprintf("wifi: unknown constellation %v", c))
	}
}
