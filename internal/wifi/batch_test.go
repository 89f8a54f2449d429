package wifi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dsp"
)

// Differential suite for the frame codecs and the one Viterbi kernel: the
// packed decoder is pinned against the hard and soft reference trellises
// (viterbi_ref_test.go), and the transmit codec against a per-symbol
// composition over fresh buffers. All comparisons are exact (==), not
// tolerance-based — the fast path must be bit-identical, or the seeded
// experiment figures would drift.

// legacyModulate rebuilds Modulate's output symbol by symbol, each stage into
// a freshly allocated buffer, with the DATA-field bit assembly re-derived
// here rather than shared with TxFrame.
func legacyModulate(t *testing.T, psdu []byte, cfg TxConfig) dsp.Samples {
	t.Helper()
	seed := cfg.ScramblerSeed & 0x7F
	if seed == 0 {
		seed = 0x5D
	}
	encode := func(bits []uint8, r Rate, firstSymIndex int) dsp.Samples {
		coded := convEncode(bits, r.Puncture())
		cbps := r.CodedBitsPerSymbol()
		var out dsp.Samples
		for s := 0; s < len(coded)/cbps; s++ {
			il := make([]uint8, cbps)
			interleaveInto(il, coded[s*cbps:(s+1)*cbps], r)
			var pts [NumDataCarriers]complex128
			mapSymbolBitsInto(&pts, il, r)
			var freq [FFTSize]complex128
			sym := make(dsp.Samples, SymbolLen)
			assembleSymbolInto(sym, &freq, &pts, firstSymIndex+s)
			out = append(out, sym...)
		}
		return out
	}
	out := preambleCached.Clone()
	out = append(out, encode(signalField(cfg.Rate, len(psdu)), Rate6, 0)...)
	nbits := NumDataSymbols(cfg.Rate, len(psdu)) * cfg.Rate.BitsPerSymbol()
	bits := make([]uint8, 0, nbits)
	bits = append(bits, make([]uint8, ServiceBits)...)
	bits = bytesToBitsInto(bits, psdu)
	bits = append(bits, make([]uint8, nbits-len(bits))...)
	NewScrambler(seed).Process(bits)
	for i := 0; i < TailBits; i++ {
		bits[ServiceBits+8*len(psdu)+i] = 0
	}
	return append(out, encode(bits, cfg.Rate, 1)...)
}

func TestTxFrameMatchesLegacyCompositionAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, r := range AllRates {
		psdu := make([]byte, 1+rng.Intn(400))
		rng.Read(psdu)
		cfg := TxConfig{Rate: r, ScramblerSeed: uint8(1 + rng.Intn(127))}
		want := legacyModulate(t, psdu, cfg)

		got, err := Modulate(psdu, cfg)
		if err != nil {
			t.Fatalf("%v: Modulate: %v", r, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: length %d, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: sample %d = %v, want %v", r, i, got[i], want[i])
			}
		}

		var codec TxCodec
		batch, err := codec.TxFrame(nil, psdu, cfg)
		if err != nil {
			t.Fatalf("%v: TxFrame: %v", r, err)
		}
		for i := range batch {
			if batch[i] != want[i] {
				t.Fatalf("%v: TxFrame sample %d = %v, want %v", r, i, batch[i], want[i])
			}
		}
	}
}

func TestTxFrameAppendsToExistingSamples(t *testing.T) {
	psdu := []byte("appended payload")
	cfg := TxConfig{Rate: Rate12, ScramblerSeed: 9}
	frame, err := Modulate(psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := make(dsp.Samples, 100)
	for i := range prefix {
		prefix[i] = complex(float64(i), -float64(i))
	}
	var codec TxCodec
	got, err := codec.TxFrame(prefix.Clone(), psdu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+len(frame) {
		t.Fatalf("length %d, want %d", len(got), len(prefix)+len(frame))
	}
	for i, v := range prefix {
		if got[i] != v {
			t.Fatalf("prefix sample %d clobbered", i)
		}
	}
	for i, v := range frame {
		if got[len(prefix)+i] != v {
			t.Fatalf("frame sample %d = %v, want %v", i, got[len(prefix)+i], v)
		}
	}
}

func TestRxFrameMatchesDemodulateAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var codec RxCodec
	for _, r := range AllRates {
		psdu := make([]byte, 1+rng.Intn(300))
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: 0x31})
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		want, err := Demodulate(tx, 100, 260)
		if err != nil {
			t.Fatalf("%v: Demodulate: %v", r, err)
		}
		got, err := codec.RxFrame(tx, 100, 260)
		if err != nil {
			t.Fatalf("%v: RxFrame: %v", r, err)
		}
		if got.LTSIndex != want.LTSIndex || got.Rate != want.Rate || got.Length != want.Length {
			t.Fatalf("%v: header %+v, want %+v", r, got, want)
		}
		if !bytes.Equal(got.PSDU, want.PSDU) {
			t.Fatalf("%v: PSDU mismatch", r)
		}
		if !bytes.Equal(want.PSDU, psdu) {
			t.Fatalf("%v: loopback payload mismatch", r)
		}
	}
}

// TestPackedViterbiMatchesReference pins viterbiScratch.decode against the
// two reference trellises.
//
// Hard streams: coded bits through the production depuncture, decoded by
// the kernel as unit LLRs and by tracebackDecode as 0/1/erasure bytes — all
// three puncture rates, terminated and open trellises, random bit
// corruptions, and extra erasures beyond the puncturing pattern's own.
//
// Soft streams: random LLR streams over the alphabets {-1, 1}, {-1, 0, 1},
// -3..3 and the full clipped range -31..31 (the small ones force metric
// ties), terminated and open, decoded by the kernel and by
// softTracebackDecode.
func TestPackedViterbiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	punctures := []Puncture{Punct1_2, Punct2_3, Punct3_4}
	var vs viterbiScratch
	for trial := 0; trial < 300; trial++ {
		p := punctures[trial%len(punctures)]
		terminated := trial%2 == 0
		n := 12 + rng.Intn(200)
		bits := make([]uint8, n)
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		if terminated {
			for i := n - 6; i < n; i++ {
				bits[i] = 0
			}
		}
		coded := convEncode(bits, p)
		// Corrupt some hard bits.
		for f := 0; f < 1+rng.Intn(4); f++ {
			coded[rng.Intn(len(coded))] ^= 1
		}
		seq, err := depunctureInto(nil, hardLLRs(coded), p, n)
		if err != nil {
			t.Fatal(err)
		}
		ref := hardBytes(seq)
		// Inject extra erasures on top of the punctured positions.
		for e := 0; e < rng.Intn(8); e++ {
			i := rng.Intn(len(seq))
			seq[i] = 0
			ref[i] = erasure
		}

		want := tracebackDecode(ref, n, terminated)
		got := make([]uint8, n)
		vs.decode(seq, got, terminated)
		if !bytes.Equal(got, want) {
			t.Fatalf("hard trial %d (p=%v terminated=%v n=%d): packed decode diverges from reference",
				trial, p, terminated, n)
		}
	}

	alphabets := []struct{ level, step int }{{1, 2}, {1, 1}, {3, 1}, {llrClip, 1}}
	for trial := 0; trial < 400; trial++ {
		a := alphabets[trial%len(alphabets)] // LLRs -level, -level+step, ..., level
		terminated := trial/len(alphabets)%2 == 0
		n := 6 + rng.Intn(300)
		seq := make([]LLR, 2*n)
		for i := range seq {
			seq[i] = LLR(rng.Intn(2*a.level/a.step+1)*a.step - a.level)
		}
		want := softTracebackDecode(seq, n, terminated)
		got := make([]uint8, n)
		vs.decode(seq, got, terminated)
		if !bytes.Equal(got, want) {
			t.Fatalf("soft trial %d (alphabet %+v terminated=%v n=%d): packed decode diverges from reference",
				trial, a, terminated, n)
		}
	}
}

// TestPackedViterbiOutOfAlphabetInput pins the kernel against
// tracebackDecode on byte streams with out-of-alphabet values (3, 4, 5, ...).
// Such a byte mismatches both outputs in the reference, which costs every
// branch alike; the kernel gets a 0 LLR there, which costs every branch
// alike too, so the decodes must agree bit for bit.
func TestPackedViterbiOutOfAlphabetInput(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var vs viterbiScratch
	for trial := 0; trial < 50; trial++ {
		terminated := trial%2 == 0
		n := 24 + rng.Intn(60)
		ref := make([]uint8, 2*n)
		seq := make([]LLR, 2*n)
		for i := range ref {
			ref[i] = uint8(rng.Intn(6))
			if ref[i] < 2 {
				seq[i] = hard(ref[i])
			}
		}
		want := tracebackDecode(ref, n, terminated)
		got := make([]uint8, n)
		vs.decode(seq, got, terminated)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (terminated=%v n=%d): out-of-alphabet bytes diverge from reference",
				trial, terminated, n)
		}
	}
}

// checkAgainstReferences decodes the depunctured stream seq with the kernel
// and fails unless the result equals softTracebackDecode's and, when every
// LLR is −1, 0 or +1, tracebackDecode's. It reports whether decodeClean
// took the stream.
func checkAgainstReferences(t *testing.T, vs *viterbiScratch, seq []LLR, terminated bool, what string) bool {
	t.Helper()
	n := len(seq) / 2
	got := make([]uint8, n)
	vs.decode(seq, got, terminated)
	if want := softTracebackDecode(seq, n, terminated); !bytes.Equal(got, want) {
		t.Fatalf("%s (terminated=%v n=%d): packed decode diverges from the soft reference", what, terminated, n)
	}
	unit := !slices.ContainsFunc(seq, func(l LLR) bool { return l < -1 || l > 1 })
	if unit && !bytes.Equal(got, tracebackDecode(hardBytes(seq), n, terminated)) {
		t.Fatalf("%s (terminated=%v n=%d): packed decode diverges from the hard reference", what, terminated, n)
	}
	return vs.decodeClean(seq, make([]uint8, n), terminated)
}

// randomBits draws n random data bits, the last six zero when terminated.
func randomBits(rng *rand.Rand, n int, terminated bool) []uint8 {
	bits := make([]uint8, n)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	if terminated {
		clear(bits[n-6:])
	}
	return bits
}

// codewordLLRs returns the depunctured unit-LLR stream of bits coded at
// rate p.
func codewordLLRs(t *testing.T, bits []uint8, p Puncture) []LLR {
	t.Helper()
	seq, err := depunctureInto(nil, hardLLRs(convEncode(bits, p)), p, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestPackedViterbiCodewordInputs pins decode `==` against both references
// on the inputs at the edge of the codeword fast path (decodeClean), at
// every puncture, terminated and open:
//   - clean codewords, in unit and in soft magnitudes 1..31, which must
//     take the fast path;
//   - exactly one flipped LLR;
//   - a step whose LLRs are both erased, which must not take it;
//   - soft zeros at kept positions;
//   - terminated frames whose end state is nonzero, which must not take it;
//   - the whole int8 range −128..127, as codeword magnitudes and as random
//     streams;
//   - the longest trellis, a 4095-byte PSDU at 6 Mb/s (32,784 steps),
//     clean, with flips, and as random int8 noise.
//
// Both the fast path and the trellis must see a share of the cases.
func TestPackedViterbiCodewordInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	punctures := []Puncture{Punct1_2, Punct2_3, Punct3_4}
	var vs viterbiScratch
	var clean, total int
	check := func(seq []LLR, terminated bool, what string) bool {
		total++
		c := checkAgainstReferences(t, &vs, seq, terminated, what)
		if c {
			clean++
		}
		return c
	}
	// int8Codeword gives each nonzero LLR of seq a magnitude drawn from the
	// whole int8 range of its sign: 1..127 for bit 0, 1..128 for bit 1.
	int8Codeword := func(seq []LLR) []LLR {
		out := slices.Clone(seq)
		for i, l := range out {
			if l > 0 {
				out[i] = LLR(1 + rng.Intn(127))
			} else if l < 0 {
				out[i] = LLR(-1 - rng.Intn(128))
			}
		}
		return out
	}
	int8Noise := func(n int) []LLR {
		out := make([]LLR, 2*n)
		for i := range out {
			out[i] = LLR(rng.Intn(256) - 128)
		}
		return out
	}

	for trial := 0; trial < 240; trial++ {
		p := punctures[trial%len(punctures)]
		terminated := trial/len(punctures)%2 == 0
		n := 7 + rng.Intn(200)
		what := fmt.Sprintf("trial %d p=%v", trial, p)
		seq := codewordLLRs(t, randomBits(rng, n, terminated), p)

		if !check(seq, terminated, what+" clean") {
			t.Fatalf("%s: a clean codeword missed the fast path", what)
		}
		soft := slices.Clone(seq)
		for i := range soft {
			soft[i] *= LLR(1 + rng.Intn(llrClip))
		}
		if !check(soft, terminated, what+" soft clean") {
			t.Fatalf("%s: a soft clean codeword missed the fast path", what)
		}
		if !check(int8Codeword(seq), terminated, what+" int8 clean") {
			t.Fatalf("%s: an int8 codeword missed the fast path", what)
		}

		flip := slices.Clone(seq)
		for {
			i := rng.Intn(len(flip))
			if flip[i] != 0 {
				flip[i] = -flip[i]
				break
			}
		}
		check(flip, terminated, what+" one flip")
		softFlip := slices.Clone(soft)
		for i, l := range flip {
			if l != seq[i] {
				softFlip[i] = -softFlip[i]
			}
		}
		check(softFlip, terminated, what+" soft one flip")

		erased := slices.Clone(seq)
		k := rng.Intn(n)
		erased[2*k], erased[2*k+1] = 0, 0
		if check(erased, terminated, what+" erased step") {
			t.Fatalf("%s: a step with no nonzero LLR took the fast path", what)
		}

		zeros := slices.Clone(soft)
		for i := range zeros {
			if zeros[i] != 0 && rng.Intn(4) == 0 {
				zeros[i] = 0
			}
		}
		check(zeros, terminated, what+" soft zeros")

		bits := randomBits(rng, n, false)
		bits[n-1] = 1 // the encoder ends in an odd state
		odd := codewordLLRs(t, bits, p)
		if check(odd, true, what+" nonzero end state") {
			t.Fatalf("%s: a terminated frame ending in a nonzero state took the fast path", what)
		}
		check(odd, false, what+" nonzero end state, open")

		check(int8Noise(n), terminated, what+" int8 noise")
	}

	// The longest trellis the SIGNAL field's 12-bit LENGTH can describe.
	n := NumDataSymbols(Rate6, 4095) * Rate6.BitsPerSymbol()
	if n != 32784 {
		t.Fatalf("4095 bytes at 6 Mb/s: %d steps, want 32784", n)
	}
	seq := codewordLLRs(t, randomBits(rng, n, false), Punct1_2)
	if !check(seq, false, "longest frame clean") {
		t.Fatal("the longest clean frame missed the fast path")
	}
	if !check(int8Codeword(seq), false, "longest frame int8 clean") {
		t.Fatal("the longest int8 codeword missed the fast path")
	}
	for i := range seq {
		if rng.Intn(8) == 0 {
			seq[i] = -seq[i]
		}
	}
	check(seq, false, "longest frame flipped")
	check(int8Noise(n), false, "longest frame int8 noise")

	t.Logf("%d of %d cases took the fast path", clean, total)
	if clean == 0 || clean == total {
		t.Fatalf("%d of %d cases took the fast path: both paths must be exercised", clean, total)
	}
}

// TestRxFrameJammedViterbiMatchesReference pins decode on the traffic the
// victim link decodes: frames at 6, 24 and 54 Mb/s overlaid with a WGN burst
// at several offsets (over the SIGNAL symbol, early, mid and late DATA) and
// SIRs, received with hard and with soft demapping. The exact depunctured
// stream the codec decoded last is decoded again, open and terminated, and
// checked against both references; both the fast path and the trellis must
// see a share of them.
func TestRxFrameJammedViterbiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	const burstLen = 400 // 20 µs at 20 MSPS: five OFDM symbols
	var rx RxCodec
	var vs viterbiScratch
	var clean, total int
	for _, r := range []Rate{Rate6, Rate24, Rate54} {
		psdu := make([]byte, 300)
		rng.Read(psdu)
		frame, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: 0x5D})
		if err != nil {
			t.Fatal(err)
		}
		var power float64
		for _, v := range frame {
			power += real(v)*real(v) + imag(v)*imag(v)
		}
		power /= float64(len(frame))
		sigStart := 320 // 16 µs of preambles
		offsets := []int{sigStart, sigStart + SymbolLen, len(frame) / 2, len(frame) - burstLen/2}
		for _, sirDB := range []float64{0, 6, 12, 20, 30} {
			sigma := math.Sqrt(power / math.Pow(10, sirDB/10) / 2)
			for _, at := range offsets {
				x := frame.Clone()
				for i := at; i < min(at+burstLen, len(x)); i++ {
					x[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
				}
				for _, soft := range []bool{false, true} {
					what := fmt.Sprintf("%v SIR %g dB burst at %d soft=%v", r, sirDB, at, soft)
					rx.vit.seq = rx.vit.seq[:0]
					rx.rxFrame(x, 100, 260, soft) // errors are fine: the stream is what is checked
					if len(rx.vit.seq) == 0 {
						continue
					}
					seq := slices.Clone(rx.vit.seq)
					for _, terminated := range []bool{false, true} {
						total++
						if checkAgainstReferences(t, &vs, seq, terminated, what) {
							clean++
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d jammed-frame decodes took the fast path", clean, total)
	if clean == 0 || clean == total {
		t.Fatalf("%d of %d jammed-frame decodes took the fast path: both paths must be exercised", clean, total)
	}
}

func TestInterleaveTablesMatchClosedForm(t *testing.T) {
	for r, info := range rateTable {
		perm := interleavePerm[r]
		if len(perm) != info.cbps {
			t.Fatalf("rate %v: table has %d entries, want %d", Rate(r), len(perm), info.cbps)
		}
		for k := 0; k < info.cbps; k++ {
			if int(perm[k]) != interleaveIndex(k, info.cbps, info.bpsc) {
				t.Fatalf("rate %v: perm[%d] = %d, want %d",
					Rate(r), k, perm[k], interleaveIndex(k, info.cbps, info.bpsc))
			}
		}
	}
}

func TestPuncturePatternsShared(t *testing.T) {
	for _, p := range []Puncture{Punct1_2, Punct2_3, Punct3_4} {
		if &p.pattern()[0] != &punctPatterns[p][0] {
			t.Fatalf("%v: pattern() returned a copy, want the shared table", p)
		}
	}
	if &Puncture(7).pattern()[0] != &punctPatterns[Punct1_2][0] {
		t.Fatal("invalid puncture should fall back to the 1/2 table")
	}
	if Punct1_2.kept() != 2 || Punct2_3.kept() != 3 || Punct3_4.kept() != 4 {
		t.Fatal("kept counts wrong")
	}
}

func TestCachedPreambleWaveformsImmutable(t *testing.T) {
	a := LongTrainingSymbol()
	a[0] = 99
	b := LongTrainingSymbol()
	if b[0] == 99 {
		t.Fatal("LongTrainingSymbol returned the cached buffer, not a copy")
	}
	pa := ShortPreamble()
	pa[5] = 99
	if ShortPreamble()[5] == 99 {
		t.Fatal("ShortPreamble returned the cached buffer, not a copy")
	}
	for i, v := range renderLongTrainingSymbol() {
		if ltsCached[i] != v {
			t.Fatalf("cached LTS sample %d drifted", i)
		}
		want := complex(real(v), -imag(v))
		if ltsConjCached[i] != want {
			t.Fatalf("conjugated LTS sample %d = %v, want %v", i, ltsConjCached[i], want)
		}
	}
}

// TestBatchCodecsZeroAlloc is the steady-state allocation contract of the
// frame codecs: after warm-up, a whole frame through either codec — the
// receive side with hard and with soft DATA demapping — must not touch the
// allocator.
func TestBatchCodecsZeroAlloc(t *testing.T) {
	psdu := make([]byte, 1000)
	rng := rand.New(rand.NewSource(46))
	rng.Read(psdu)
	cfg := TxConfig{Rate: Rate54, ScramblerSeed: 0x5D}

	var tx TxCodec
	dst := make(dsp.Samples, 0, FrameDuration(cfg.Rate, len(psdu)))
	var err error
	dst, err = tx.TxFrame(dst, psdu, cfg) // warm the grow-only scratch
	if err != nil {
		t.Fatal(err)
	}
	frame := dst.Clone()
	if allocs := testing.AllocsPerRun(20, func() {
		dst = dst[:0]
		dst, err = tx.TxFrame(dst, psdu, cfg)
	}); allocs != 0 {
		t.Fatalf("TxFrame allocates %v times per frame in steady state", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}

	var rx RxCodec
	if _, err := rx.RxFrame(frame, 100, 260); err != nil {
		t.Fatal(err)
	}
	var res *RxResult
	if allocs := testing.AllocsPerRun(20, func() {
		res, err = rx.RxFrame(frame, 100, 260)
	}); allocs != 0 {
		t.Fatalf("RxFrame allocates %v times per frame in steady state", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("steady-state RxFrame corrupted the payload")
	}

	if _, err := rx.rxFrame(frame, 100, 260, true); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		res, err = rx.rxFrame(frame, 100, 260, true)
	}); allocs != 0 {
		t.Fatalf("soft rxFrame allocates %v times per frame in steady state", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("steady-state soft rxFrame corrupted the payload")
	}
}

func benchFrame(b *testing.B) (dsp.Samples, []byte, TxConfig) {
	b.Helper()
	psdu := make([]byte, 1000)
	rng := rand.New(rand.NewSource(47))
	rng.Read(psdu)
	cfg := TxConfig{Rate: Rate54, ScramblerSeed: 0x5D}
	frame, err := Modulate(psdu, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return frame, psdu, cfg
}

func BenchmarkTxFrame(b *testing.B) {
	frame, psdu, cfg := benchFrame(b)
	var codec TxCodec
	dst := make(dsp.Samples, 0, len(frame))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = codec.TxFrame(dst[:0], psdu, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRxFrame(b *testing.B) {
	frame, _, _ := benchFrame(b)
	var codec RxCodec
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.RxFrame(frame, 100, 260); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModulate(b *testing.B) {
	frame, psdu, cfg := benchFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Modulate(psdu, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemodulate(b *testing.B) {
	frame, _, _ := benchFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Demodulate(frame, 100, 260); err != nil {
			b.Fatal(err)
		}
	}
}

// viterbiBenchInput is a seeded random 4000-bit message coded at rate 3/4
// and depunctured: the coded bits as unit LLRs, each passed to noise, and
// tracebackDecode's byte form of the clean stream.
func viterbiBenchInput(b *testing.B, noise func(rng *rand.Rand, l LLR) LLR) ([]LLR, []uint8, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(48))
	n := 4000
	bits := make([]uint8, n)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	coded := hardLLRs(convEncode(bits, Punct3_4))
	seq, err := depunctureInto(nil, coded, Punct3_4, n)
	if err != nil {
		b.Fatal(err)
	}
	ref := hardBytes(seq)
	for i, l := range coded {
		coded[i] = noise(rng, l)
	}
	seq, _ = depunctureInto(seq[:0], coded, Punct3_4, n)
	return seq, ref, n
}

func benchmarkViterbiPacked(b *testing.B, noise func(rng *rand.Rand, l LLR) LLR) {
	seq, _, n := viterbiBenchInput(b, noise)
	var vs viterbiScratch
	out := make([]uint8, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.decode(seq, out, false)
	}
}

// BenchmarkViterbiPacked decodes a clean codeword: the fast path.
func BenchmarkViterbiPacked(b *testing.B) {
	benchmarkViterbiPacked(b, func(_ *rand.Rand, l LLR) LLR { return l })
}

// BenchmarkViterbiPackedNoisyHard flips one in eight hard coded bits, so
// every decode runs the trellis.
func BenchmarkViterbiPackedNoisyHard(b *testing.B) {
	benchmarkViterbiPacked(b, func(rng *rand.Rand, l LLR) LLR {
		if rng.Intn(8) == 0 {
			return -l
		}
		return l
	})
}

// BenchmarkViterbiPackedSoft sends each coded bit as an LLR of ±8 plus
// uniform noise in −12..12, so about one in six has the wrong sign and the
// add-compare-selects see no predictable pattern.
func BenchmarkViterbiPackedSoft(b *testing.B) {
	benchmarkViterbiPacked(b, func(rng *rand.Rand, l LLR) LLR { return 8*l + LLR(rng.Intn(25)-12) })
}

func BenchmarkViterbiReference(b *testing.B) {
	_, ref, n := viterbiBenchInput(b, func(_ *rand.Rand, l LLR) LLR { return l })
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracebackDecode(ref, n, false)
	}
}
