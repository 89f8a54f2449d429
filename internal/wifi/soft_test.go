package wifi

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsp"
)

func TestSoftLoopbackAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range AllRates {
		psdu := make([]byte, 180)
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: r, ScramblerSeed: 0x33})
		if err != nil {
			t.Fatal(err)
		}
		res, err := DemodulateSoft(tx, 0, len(tx))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("%v: soft loopback corrupted PSDU", r)
		}
	}
}

func TestSoftLLRSigns(t *testing.T) {
	// A confidently-received constellation point must produce LLRs whose
	// signs agree with the hard decision, for every constellation.
	rng := rand.New(rand.NewSource(12))
	for _, c := range []Constellation{BPSK, QPSK, QAM16, QAM64} {
		n := c.Bits()
		bits := make([]uint8, n)
		for trial := 0; trial < 20; trial++ {
			for i := range bits {
				bits[i] = uint8(rng.Intn(2))
			}
			p := c.Map(bits)
			llrs := c.DemapSoft(p, nil)
			if len(llrs) != n {
				t.Fatalf("%v: %d LLRs for %d bits", c, len(llrs), n)
			}
			for i, l := range llrs {
				want := bits[i]
				switch {
				case l > 0 && want != 0:
					t.Fatalf("%v bit %d: LLR %d but bit is 1", c, i, l)
				case l < 0 && want != 1:
					t.Fatalf("%v bit %d: LLR %d but bit is 0", c, i, l)
				case l == 0:
					t.Fatalf("%v bit %d: zero LLR on clean point", c, i)
				}
			}
		}
	}
}

func TestSoftBeatsHardUnderBurstJamming(t *testing.T) {
	// A jam burst over a run of data symbols at moderate power: the soft
	// receiver recovers frames the hard receiver loses.
	rng := rand.New(rand.NewSource(13))
	const trials = 30
	hardOK, softOK := 0, 0
	for tr := 0; tr < trials; tr++ {
		psdu := make([]byte, 300)
		rng.Read(psdu)
		tx, err := Modulate(psdu, TxConfig{Rate: Rate24, ScramblerSeed: uint8(tr) + 1})
		if err != nil {
			t.Fatal(err)
		}
		rx := tx.Clone()
		// Burst over 4 symbols starting after the preamble+SIGNAL, at a
		// power where hard decisions are marginal.
		start := 400 + 160
		jam := dsp.NewNoiseSource(0.25, int64(tr))
		for i := start; i < start+4*SymbolLen && i < len(rx); i++ {
			rx[i] += jam.Sample()
		}
		noise := dsp.NewNoiseSource(1e-4, int64(tr)+100)
		noise.AddTo(rx)
		if res, err := Demodulate(rx, 0, 300); err == nil && bytes.Equal(res.PSDU, psdu) {
			hardOK++
		}
		if res, err := DemodulateSoft(rx, 0, 300); err == nil && bytes.Equal(res.PSDU, psdu) {
			softOK++
		}
	}
	if softOK < hardOK {
		t.Errorf("soft receiver (%d/%d) worse than hard (%d/%d) under burst jamming",
			softOK, trials, hardOK, trials)
	}
	if softOK == 0 {
		t.Error("soft receiver recovered nothing; burst too strong for the test's point")
	}
}

func TestViterbiSoftMatchesHardOnCleanInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bits := make([]uint8, 96)
	for i := range bits[:90] {
		bits[i] = uint8(rng.Intn(2))
	}
	llrs := hardLLRs(convEncode(bits, Punct1_2))
	for i := range llrs {
		llrs[i] *= llrClip // saturated soft decisions
	}
	var vs viterbiScratch
	dec := make([]uint8, 96)
	if err := vs.depunctureDecode(dec, llrs, Punct1_2, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, bits) {
		t.Error("soft decode of saturated LLRs differs from input")
	}
}

// TestViterbiSoftShortInput pins the shared depuncture's short-input error:
// hard and soft streams go through the same depunctureInto.
func TestViterbiSoftShortInput(t *testing.T) {
	_, err := depunctureInto(nil, []LLR{1, 2}, Punct1_2, 24)
	if err == nil {
		t.Fatal("insufficient LLRs accepted")
	}
	if want := "2 coded bits, need 48"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report %q", err, want)
	}
}
