package wifib

import (
	"encoding/binary"
	"testing"

	"repro/internal/dsp"
)

// fuzzMaxSamples bounds one fuzz input at 8192 samples at 22 MSPS: the
// 192 µs long preamble and PLCP header plus about 180 µs of PSDU (22 bytes
// at 1 Mbps, 247 at 11 Mbps). It bounds each call's sync search and decode.
const fuzzMaxSamples = 8192

// fuzzWaveform decodes fuzz bytes into baseband: four bytes per sample, two
// little-endian int16 rails at 4096 codes per unit amplitude, the encoding
// of the OFDM receiver's fuzz target. Barker and CCK chips have unit
// modulus, so a jamming burst several times their power still fits.
func fuzzWaveform(data []byte) dsp.Samples {
	n := min(len(data)/4, fuzzMaxSamples)
	x := make(dsp.Samples, n)
	for i := range x {
		re := int16(binary.LittleEndian.Uint16(data[4*i:]))
		im := int16(binary.LittleEndian.Uint16(data[4*i+2:]))
		x[i] = complex(float64(re)/4096, float64(im)/4096)
	}
	return x
}

// FuzzDemodulate feeds the 802.11b receiver the kind of waveform a
// reactive jammer leaves behind — clean frames, a WGN burst over the PLCP
// header, a truncated PSDU, arbitrary bytes — searching the whole input for
// the preamble. It must return an error or a result consistent with its
// header, never panic: the PSDU is as long as the header's LENGTH (and
// length-extension bit) say, and no longer than the samples after the sync
// point can carry at one bit per chip, so the LENGTH-driven decode is
// bounded by the input. The committed corpus (testdata/fuzz/FuzzDemodulate)
// seeds clean 1, 2, 5.5 and 11 Mbps frames, those cases, and an 11 Mbps
// header with LENGTH 0 and the length-extension bit set, which describes
// −1 PSDU bytes.
func FuzzDemodulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzWaveform(data)
		res, err := Demodulate(x, 0, len(x))
		if err != nil {
			return
		}
		n := len(res.PSDU)
		if n != psduBytesFromLength(res.Rate, res.LengthUS, false) &&
			n != psduBytesFromLength(res.Rate, res.LengthUS, true) {
			t.Fatalf("%d PSDU bytes for LENGTH %d µs at %v", n, res.LengthUS, res.Rate)
		}
		if res.Start < 0 || res.Start >= len(x) || 8*n > (len(x)-res.Start)/SamplesPerChip {
			t.Fatalf("%d PSDU bytes from sync at %d of %d samples", n, res.Start, len(x))
		}
	})
}
