package wifib

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Receive path: Barker-correlation symbol sync, differential demodulation
// of the scrambled SYNC/SFD/header, CRC check, and payload recovery at the
// header-indicated rate (Barker DBPSK/DQPSK or CCK code-bank correlation).

// RxResult reports one demodulated 802.11b PPDU.
type RxResult struct {
	// Start is the sample index of the first SYNC symbol.
	Start int
	// Rate is the PSDU rate from the PLCP header.
	Rate Rate
	// LengthUS is the header LENGTH field (PSDU microseconds).
	LengthUS int
	// PSDU is the descrambled payload.
	PSDU []byte
}

// ErrSync is returned when no Barker-spread preamble is found.
var ErrSync = fmt.Errorf("wifib: synchronization failed")

// barkerTemplate is the oversampled Barker symbol used for sync.
var barkerTemplate = func() dsp.Samples {
	out := make(dsp.Samples, 0, BarkerLength*SamplesPerChip)
	for _, b := range Barker {
		for s := 0; s < SamplesPerChip; s++ {
			out = append(out, complex(b, 0))
		}
	}
	return out
}()

// symbolSpan is one Barker symbol in samples.
const symbolSpan = BarkerLength * SamplesPerChip

// despread correlates one symbol-aligned span against the Barker template.
func despread(x dsp.Samples) complex128 {
	var acc complex128
	n := min(len(x), symbolSpan)
	for i := 0; i < n; i++ {
		acc += x[i] * barkerTemplate[i]
	}
	return acc
}

// Sync scans [from, to) for the Barker symbol alignment that maximizes
// despread energy over a few consecutive symbols.
func Sync(x dsp.Samples, from, to int) (int, error) {
	const checkSymbols = 8
	if from < 0 {
		from = 0
	}
	if to > len(x)-checkSymbols*symbolSpan {
		to = len(x) - checkSymbols*symbolSpan
	}
	if from >= to {
		return 0, ErrSync
	}
	best, bestE := -1, 0.0
	var sum float64
	var count int
	for k := from; k < to; k++ {
		var e float64
		for s := 0; s < checkSymbols; s++ {
			c := despread(x[k+s*symbolSpan:])
			e += real(c)*real(c) + imag(c)*imag(c)
		}
		sum += e
		count++
		if e > bestE {
			best, bestE = k, e
		}
	}
	if best < 0 || bestE < 4*sum/float64(count) {
		return 0, ErrSync
	}
	return best, nil
}

// demodulator walks the waveform symbol by symbol.
type demodulator struct {
	x      dsp.Samples
	pos    int
	prev   complex128
	scr    *Scrambler
	symIdx int
}

// nextBarkerBits despreads one symbol and differentially slices nbits
// (1 for DBPSK, 2 for DQPSK), returning descrambled bits.
func (d *demodulator) nextBarkerBits(nbits int) ([]uint8, error) {
	if d.pos+symbolSpan > len(d.x) {
		return nil, fmt.Errorf("wifib: waveform truncated at sample %d", d.pos)
	}
	cur := despread(d.x[d.pos:])
	d.pos += symbolSpan
	diff := cur * cmplx.Conj(d.prev)
	d.prev = cur
	ph := cmplx.Phase(diff)
	var raw []uint8
	if nbits == 1 {
		if math.Abs(ph) > math.Pi/2 {
			raw = []uint8{1}
		} else {
			raw = []uint8{0}
		}
	} else {
		// Quantize to the nearest DQPSK increment.
		q := int(math.Round(ph/(math.Pi/2)+4)) % 4
		switch q {
		case 0:
			raw = []uint8{0, 0}
		case 1:
			raw = []uint8{0, 1}
		case 2:
			raw = []uint8{1, 1}
		default:
			raw = []uint8{1, 0}
		}
	}
	out := make([]uint8, len(raw))
	for i, b := range raw {
		out[i] = d.scr.Descramble(b)
	}
	d.symIdx++
	return out, nil
}

// nextCCKBits decodes one CCK symbol of 4 or 8 bits.
func (d *demodulator) nextCCKBits(nbits int) ([]uint8, error) {
	span := 8 * SamplesPerChip
	if d.pos+span > len(d.x) {
		return nil, fmt.Errorf("wifib: waveform truncated at sample %d", d.pos)
	}
	// Chip estimates (average the oversampled points).
	var chips [8]complex128
	for c := 0; c < 8; c++ {
		var acc complex128
		for s := 0; s < SamplesPerChip; s++ {
			acc += d.x[d.pos+c*SamplesPerChip+s]
		}
		chips[c] = acc
	}
	d.pos += span

	type cand struct {
		bits       []uint8
		p2, p3, p4 float64
	}
	var cands []cand
	if nbits == 8 {
		for b2 := 0; b2 < 4; b2++ {
			for b3 := 0; b3 < 4; b3++ {
				for b4 := 0; b4 < 4; b4++ {
					cands = append(cands, cand{
						bits: []uint8{uint8(b2 >> 1), uint8(b2 & 1),
							uint8(b3 >> 1), uint8(b3 & 1),
							uint8(b4 >> 1), uint8(b4 & 1)},
						p2: qpskPhase(uint8(b2>>1), uint8(b2&1)),
						p3: qpskPhase(uint8(b3>>1), uint8(b3&1)),
						p4: qpskPhase(uint8(b4>>1), uint8(b4&1)),
					})
				}
			}
		}
	} else {
		for d2 := 0; d2 < 2; d2++ {
			for d3 := 0; d3 < 2; d3++ {
				cands = append(cands, cand{
					bits: []uint8{uint8(d2), uint8(d3)},
					p2:   float64(d2)*math.Pi + math.Pi/2,
					p3:   0,
					p4:   float64(d3) * math.Pi,
				})
			}
		}
	}
	bestMag := -1.0
	var bestCorr complex128
	var bestBits []uint8
	for _, c := range cands {
		code := cckChips(0, c.p2, c.p3, c.p4)
		var acc complex128
		for k := 0; k < 8; k++ {
			acc += chips[k] * cmplx.Conj(code[k])
		}
		if m := cmplx.Abs(acc); m > bestMag {
			bestMag, bestCorr, bestBits = m, acc, c.bits
		}
	}
	// φ1 comes from the residual phase, differentially against the running
	// reference, undoing the odd-symbol π rotation.
	diff := bestCorr * cmplx.Conj(d.prev)
	ph := cmplx.Phase(diff)
	if d.symIdx%2 == 1 {
		ph -= math.Pi
	}
	q := ((int(math.Round(ph/(math.Pi/2))) % 4) + 4) % 4
	var first []uint8
	switch q {
	case 0:
		first = []uint8{0, 0}
	case 1:
		first = []uint8{0, 1}
	case 2:
		first = []uint8{1, 1}
	default:
		first = []uint8{1, 0}
	}
	// The correlator output's phase is the full accumulated φ1 (the TX
	// phase accumulates across symbols, odd-symbol rotations included), so
	// it becomes the next differential reference directly.
	d.prev = bestCorr
	d.symIdx++

	raw := append(first, bestBits...)
	out := make([]uint8, 0, nbits)
	for _, b := range raw[:nbits] {
		out = append(out, d.scr.Descramble(b))
	}
	return out, nil
}

// Demodulate recovers one PPDU, searching for the preamble start within
// [searchFrom, searchTo).
func Demodulate(x dsp.Samples, searchFrom, searchTo int) (*RxResult, error) {
	start, err := Sync(x, searchFrom, searchTo)
	if err != nil {
		return nil, err
	}
	d := &demodulator{x: x, pos: start, scr: NewScrambler(0)}
	// Prime the differential reference with the first symbol.
	d.prev = despread(x[d.pos:])
	d.pos += symbolSpan
	d.symIdx = 1
	// Feed the first symbol's (unknown) bit into the self-synchronizing
	// descrambler via a dummy: the SYNC bits before SFD are discardable.
	d.scr.Descramble(0)

	// Hunt for the SFD in the descrambled DBPSK stream. The window only
	// holds 16 received bits from the 16th on: before that its high bits
	// are the zeros it started with, and SFD's five low zeros would let a
	// descrambler start-up transient that happens to spell its top 11 bits
	// match a phantom SFD inside the SYNC field.
	var window uint32
	found := false
	for i := 0; i < SyncBits+40; i++ {
		bits, err := d.nextBarkerBits(1)
		if err != nil {
			return nil, err
		}
		window = (window >> 1) | uint32(bits[0])<<15
		if i >= 15 && window == SFD {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("wifib: SFD not found after sync at %d", start)
	}

	// PLCP header.
	hdr := make([]uint8, 0, HeaderBits)
	for len(hdr) < HeaderBits {
		bits, err := d.nextBarkerBits(1)
		if err != nil {
			return nil, err
		}
		hdr = append(hdr, bits...)
	}
	crcGot := uint16(0)
	for i := 0; i < 16; i++ {
		crcGot |= uint16(hdr[32+i]) << i
	}
	if CRC16(hdr[:32]) != crcGot {
		return nil, fmt.Errorf("wifib: PLCP header CRC mismatch")
	}
	var sig uint8
	for i := 0; i < 8; i++ {
		sig |= hdr[i] << i
	}
	rate, err := rateFromSignal(sig)
	if err != nil {
		return nil, err
	}
	lengthUS := 0
	for i := 0; i < 16; i++ {
		lengthUS |= int(hdr[16+i]) << i
	}
	service := uint8(0)
	for i := 0; i < 8; i++ {
		service |= hdr[8+i] << i
	}
	psduBytes := psduBytesFromLength(rate, lengthUS, service&0x80 != 0)
	if psduBytes < 0 {
		// LENGTH 0 with the 11 Mbps length-extension bit: a header only
		// corruption (or a jammer) can produce.
		return nil, fmt.Errorf("wifib: LENGTH %d µs with the length-extension bit set", lengthUS)
	}

	// The CCK odd-symbol rotation is counted from the frame start, and the
	// first PSDU symbol is always TX symbol 192 (144 preamble + 48 header
	// at 1 Mbps). Re-anchoring here makes the parity immune to the sync
	// landing a few whole symbols into the SYNC field.
	d.symIdx = PreambleDuration()

	// PSDU.
	var bits []uint8
	for len(bits) < psduBytes*8 {
		var got []uint8
		var err error
		switch rate {
		case Rate1:
			got, err = d.nextBarkerBits(1)
		case Rate2:
			got, err = d.nextBarkerBits(2)
		case Rate5_5:
			got, err = d.nextCCKBits(4)
		default:
			got, err = d.nextCCKBits(8)
		}
		if err != nil {
			return nil, err
		}
		bits = append(bits, got...)
	}
	psdu := make([]byte, psduBytes)
	for i := range psdu {
		var v byte
		for j := 0; j < 8; j++ {
			v |= byte(bits[i*8+j]) << j
		}
		psdu[i] = v
	}
	return &RxResult{Start: start, Rate: rate, LengthUS: lengthUS, PSDU: psdu}, nil
}

// psduBytesFromLength inverts txTimeUS (§18.2.3.5).
func psduBytesFromLength(rate Rate, us int, lengthExt bool) int {
	switch rate {
	case Rate1:
		return us / 8
	case Rate2:
		return us * 2 / 8
	case Rate5_5:
		return int(math.Floor(float64(us)*5.5/8)) / 1
	default:
		n := int(math.Floor(float64(us) * 11 / 8))
		if lengthExt {
			n--
		}
		return n
	}
}
