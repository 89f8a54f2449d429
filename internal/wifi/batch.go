package wifi

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dsp"
)

// Frame codecs: the one path through the whole modem.
//
// A TxCodec or RxCodec owns every scratch buffer one frame's worth of OFDM
// symbols needs — transform points, interleaver blocks, coded-bit and LLR
// streams, Viterbi metrics and decision words — so processing N symbols
// touches the allocator zero times once the grow-only slices have reached
// the frame size.
//
// Modulate, Demodulate and DemodulateSoft route through sync.Pool-managed
// codecs and keep their allocating, caller-owns-result signatures.

// maxCBPS is the largest N_CBPS of any rate (64-QAM: 288 coded bits).
const maxCBPS = 288

// TxCodec carries the reusable transmit-side scratch.
type TxCodec struct {
	freq   [FFTSize]complex128
	points [NumDataCarriers]complex128
	il     [maxCBPS]uint8
	sig    [24]uint8
	bits   []uint8 // scrambled DATA-field bits, grow-only
	coded  []uint8 // punctured coded bits of one field, grow-only
}

var txPool = sync.Pool{New: func() any { return new(TxCodec) }}

// encodeSymbols codes, interleaves, maps and OFDM-assembles bits (already
// scrambled, tail zeroed) onto the end of dst, which must have capacity for
// every produced symbol. firstSymIndex sets the pilot polarity origin.
func (c *TxCodec) encodeSymbols(dst dsp.Samples, bits []uint8, r Rate, firstSymIndex int) dsp.Samples {
	if cap(c.coded) < 2*len(bits) {
		c.coded = make([]uint8, 0, 2*len(bits))
	}
	coded := convEncodeInto(c.coded[:0], bits, r.Puncture())
	c.coded = coded
	cbps := r.CodedBitsPerSymbol()
	nsym := len(coded) / cbps
	for s := 0; s < nsym; s++ {
		interleaveInto(c.il[:cbps], coded[s*cbps:(s+1)*cbps], r)
		mapSymbolBitsInto(&c.points, c.il[:cbps], r)
		n := len(dst)
		dst = dst[:n+SymbolLen]
		assembleSymbolInto(dst[n:], &c.freq, &c.points, firstSymIndex+s)
	}
	return dst
}

// TxFrame appends the complete PPDU baseband waveform for psdu to dst and
// returns the extended slice. Allocation free when dst has FrameDuration
// spare capacity and the codec has processed a frame this large before.
func (c *TxCodec) TxFrame(dst dsp.Samples, psdu []byte, cfg TxConfig) (dsp.Samples, error) {
	if !cfg.Rate.Valid() {
		return dst, fmt.Errorf("wifi: invalid rate %v", cfg.Rate)
	}
	if len(psdu) == 0 || len(psdu) > MaxPSDU {
		return dst, fmt.Errorf("wifi: PSDU length %d outside [1, %d]", len(psdu), MaxPSDU)
	}
	seed := cfg.ScramblerSeed & 0x7F
	if seed == 0 {
		seed = 0x5D // standard example seed 1011101
	}
	if need := len(dst) + FrameDuration(cfg.Rate, len(psdu)); cap(dst) < need {
		grown := make(dsp.Samples, len(dst), need)
		copy(grown, dst)
		dst = grown
	}

	dst = append(dst, preambleCached...)

	// SIGNAL: BPSK rate-1/2, not scrambled, own single symbol, pilot p_0.
	signalFieldInto(&c.sig, cfg.Rate, len(psdu))
	dst = c.encodeSymbols(dst, c.sig[:], Rate6, 0)

	// DATA: SERVICE + PSDU + tail + pad, scrambled (tail bits re-zeroed
	// after scrambling to terminate the trellis).
	nsym := NumDataSymbols(cfg.Rate, len(psdu))
	nbits := nsym * cfg.Rate.BitsPerSymbol()
	if cap(c.bits) < nbits {
		c.bits = make([]uint8, 0, nbits)
	}
	bits := c.bits[:0]
	for i := 0; i < ServiceBits; i++ {
		bits = append(bits, 0)
	}
	bits = bytesToBitsInto(bits, psdu)
	for len(bits) < nbits {
		bits = append(bits, 0) // tail + pad
	}
	c.bits = bits
	scr := Scrambler{state: seed}
	scr.Process(bits)
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		bits[tailStart+i] = 0
	}
	return c.encodeSymbols(dst, bits, cfg.Rate, 1), nil
}

// RxCodec carries the reusable receive-side scratch, including the packed
// Viterbi working set and the sync correlation magnitudes.
type RxCodec struct {
	mags   []float64
	freq   [FFTSize]complex128
	f2     [FFTSize]complex128
	points [NumDataCarriers]complex128
	h      Channel
	db     [maxCBPS]LLR // demapped (still interleaved) symbol LLRs
	sigDec [24]uint8
	coded  []LLR   // one field's deinterleaved coded LLRs
	bits   []uint8 // Viterbi output data bits
	psdu   []byte
	vit    viterbiScratch
	res    RxResult
}

var rxPool = sync.Pool{New: func() any { return new(RxCodec) }}

// sync locates the first long training symbol: it correlates candidate
// start positions in [from, to) against the cached conjugated LTS taps and
// requires the characteristic double peak 64 samples apart.
func (c *RxCodec) sync(x dsp.Samples, from, to int) (int, error) {
	if from < 0 {
		from = 0
	}
	last := len(x) - (2*FFTSize + SymbolLen) // need LTS1+LTS2+SIGNAL after
	if to > last {
		to = last
	}
	if from >= to {
		return 0, ErrSync
	}
	// Correlation magnitude at every candidate offset in the window plus
	// one LTS length (for the second peak).
	n := to - from + FFTSize + 1
	if cap(c.mags) < n {
		c.mags = make([]float64, n)
	}
	mags := c.mags[:n]
	lts := ltsConjCached
	for i := 0; i < n; i++ {
		k := from + i
		var acc complex128
		for j := 0; j < FFTSize; j++ {
			acc += x[k+j] * lts[j]
		}
		mags[i] = real(acc)*real(acc) + imag(acc)*imag(acc)
	}
	best, bestScore := -1, 0.0
	for i := 0; i+FFTSize < n; i++ {
		score := mags[i] + mags[i+FFTSize]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, ErrSync
	}
	// Reject pure-noise "peaks": the LTS autocorrelation at the right lag
	// concentrates energy; require the peak to dominate the window median.
	var sum float64
	for _, m := range mags {
		sum += m
	}
	mean := sum / float64(len(mags))
	if bestScore < 4*mean {
		return 0, ErrSync
	}
	return from + best, nil
}

// RxFrame recovers one PPDU from the waveform, searching for the long
// preamble start in [searchFrom, searchTo). The returned RxResult (and its
// PSDU) alias codec scratch and are valid until the next RxFrame call;
// Demodulate copies them out for callers that keep the data.
func (c *RxCodec) RxFrame(x dsp.Samples, searchFrom, searchTo int) (*RxResult, error) {
	return c.rxFrame(x, searchFrom, searchTo, false)
}

// rxFrame is the receive pipeline: sync, channel estimate, a hard SIGNAL
// decode, then the DATA symbols through the hard demapper (or, when soft,
// the max-log one) into the same depuncture, Viterbi and descramble.
func (c *RxCodec) rxFrame(x dsp.Samples, searchFrom, searchTo int, soft bool) (*RxResult, error) {
	ltsStart, err := c.sync(x, searchFrom, searchTo)
	if err != nil {
		return nil, err
	}
	if len(x) < ltsStart+2*FFTSize+SymbolLen {
		return nil, fmt.Errorf("wifi: truncated frame after sync")
	}
	estimateChannelInto(&c.h, &c.freq, &c.f2,
		x[ltsStart:ltsStart+FFTSize], x[ltsStart+FFTSize:ltsStart+2*FFTSize])

	// SIGNAL symbol.
	sigStart := ltsStart + 2*FFTSize
	c.coded = c.demapSymbols(c.coded[:0], x[sigStart:], 1, Rate6, 0, false)
	if err := c.vit.depunctureDecode(c.sigDec[:], c.coded, Punct1_2, true); err != nil {
		return nil, err
	}
	rate, length, err := parseSignalField(c.sigDec[:])
	if err != nil {
		return nil, err
	}

	// DATA symbols.
	nsym := NumDataSymbols(rate, length)
	dataStart := sigStart + SymbolLen
	if len(x) < dataStart+nsym*SymbolLen {
		return nil, fmt.Errorf("wifi: frame truncated (%d of %d data symbols)",
			(len(x)-dataStart)/SymbolLen, nsym)
	}
	c.coded = c.demapSymbols(c.coded[:0], x[dataStart:], nsym, rate, 1, soft)
	nbits := nsym * rate.BitsPerSymbol()
	if cap(c.bits) < nbits {
		c.bits = make([]uint8, nbits)
	}
	bits := c.bits[:nbits]
	if err := c.vit.depunctureDecode(bits, c.coded, rate.Puncture(), false); err != nil {
		return nil, err
	}

	// Descramble: the first 7 bits carry the seed (SERVICE bits are zero).
	desc := Scrambler{state: RecoverSeed(bits[:7])}
	desc.Process(bits[7:])
	for i := 0; i < 7; i++ {
		bits[i] = 0
	}
	psduBits := bits[ServiceBits : ServiceBits+8*length]
	if cap(c.psdu) < length {
		c.psdu = make([]byte, length)
	}
	psdu := c.psdu[:length]
	bitsToBytesInto(psdu, psduBits)
	c.res = RxResult{LTSIndex: ltsStart, Rate: rate, Length: length, PSDU: psdu}
	return &c.res, nil
}

// demapSymbols equalizes nsym OFDM symbols at the start of x (pilot
// polarity from firstSymIndex on), demaps each to LLRs — unit hard
// decisions, or max-log LLRs when soft — and appends them deinterleaved to
// dst.
func (c *RxCodec) demapSymbols(dst []LLR, x dsp.Samples, nsym int, r Rate, firstSymIndex int, soft bool) []LLR {
	con := r.Constellation()
	cbps := r.CodedBitsPerSymbol()
	dst = slices.Grow(dst, nsym*cbps)
	for s := 0; s < nsym; s++ {
		disassembleSymbolInto(&c.points, &c.freq, x[s*SymbolLen:(s+1)*SymbolLen], &c.h, firstSymIndex+s)
		db := c.db[:0]
		for _, p := range &c.points {
			if soft {
				db = con.DemapSoft(p, db)
			} else {
				db = con.Demap(p, db)
			}
		}
		n := len(dst)
		dst = dst[:n+cbps]
		deinterleaveInto(dst[n:], db, r)
	}
	return dst
}
