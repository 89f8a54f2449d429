package wifi

import (
	"fmt"

	"repro/internal/dsp"
)

// Receiver-side processing: long-training-sequence synchronization, channel
// estimation, SIGNAL decoding, and DATA-field recovery. This is the "AP and
// client" side of the validation experiments — a frame that decodes with a
// valid FCS counts as received; a frame whose payload was hit by the jammer
// fails here and triggers MAC retransmission.
//
// Demodulate and DemodulateSoft borrow a pooled RxCodec (see batch.go) and
// run its one receive pipeline, differing only in the DATA demapper;
// callers that process many frames back to back can hold their own RxCodec
// and use RxFrame directly for the fully allocation-free path.

// RxResult reports one demodulated PPDU.
type RxResult struct {
	// LTSIndex is the sample index of the first long training symbol.
	LTSIndex int
	// Rate and Length are the decoded SIGNAL parameters.
	Rate   Rate
	Length int
	// PSDU is the recovered payload (Length bytes).
	PSDU []byte
}

// ErrSync is returned when no plausible long training sequence is found.
var ErrSync = fmt.Errorf("wifi: synchronization failed")

// Demodulate recovers one PPDU from the waveform, searching for the long
// preamble start in [searchFrom, searchTo). On success the PSDU has been
// Viterbi-decoded and descrambled; FCS checking is the caller's (MAC's)
// concern. The returned result is a copy the caller owns.
func Demodulate(x dsp.Samples, searchFrom, searchTo int) (*RxResult, error) {
	return demodulate(x, searchFrom, searchTo, false)
}

// DemodulateSoft mirrors Demodulate with soft-decision demapping of the
// DATA symbols (the SIGNAL field stays hard — it is short, BPSK, and
// rate-1/2).
func DemodulateSoft(x []complex128, searchFrom, searchTo int) (*RxResult, error) {
	return demodulate(x, searchFrom, searchTo, true)
}

// demodulate runs one frame through a pooled RxCodec and copies the result
// out of codec scratch.
func demodulate(x dsp.Samples, searchFrom, searchTo int, soft bool) (*RxResult, error) {
	c := rxPool.Get().(*RxCodec)
	defer rxPool.Put(c)
	res, err := c.rxFrame(x, searchFrom, searchTo, soft)
	if err != nil {
		return nil, err
	}
	out := *res
	out.PSDU = append([]byte(nil), res.PSDU...)
	return &out, nil
}
