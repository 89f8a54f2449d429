package wifi

import (
	"encoding/binary"
	"testing"

	"repro/internal/dsp"
)

// fuzzMaxSamples bounds one fuzz input at 8192 baseband samples (room for a
// 2.5 kB frame at 54 Mbps), and with it each call's sync search and decode.
const fuzzMaxSamples = 8192

// fuzzWaveform decodes fuzz bytes into baseband: four bytes per sample, two
// little-endian int16 rails at 4096 codes per unit amplitude, so a
// unit-power frame keeps ~12 bits of resolution and a jamming burst several
// times its power still fits.
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

// FuzzDemodulate feeds the OFDM receiver, with hard (Demodulate) and soft
// (DemodulateSoft) DATA demapping in turn, the kind of waveform a reactive jammer
// leaves behind — clean frames, frames with a WGN burst over the SIGNAL
// symbol or over the data symbols, truncated frames, arbitrary bytes — and
// requires each to return a consistent result or an error, never to panic.
// The committed corpus (testdata/fuzz/FuzzDemodulate) seeds those cases at
// 6, 24 and 54 Mbps.
func FuzzDemodulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzWaveform(data)
		for _, soft := range []bool{false, true} {
			res, err := demodulate(x, 0, len(x), soft)
			if err != nil {
				continue
			}
			if len(res.PSDU) != res.Length || res.LTSIndex < 0 || res.LTSIndex >= len(x) {
				t.Fatalf("inconsistent result: LTS %d, Length %d, %d PSDU bytes, %d samples",
					res.LTSIndex, res.Length, len(res.PSDU), len(x))
			}
		}
	})
}
