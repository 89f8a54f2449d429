package wifi

// Reference decoders and coding helpers for the tests. The production
// receiver has one packed kernel, viterbiScratch.decode; the two retained
// trellises below are what the differential tests pin it against, exactly.

// erasure marks a punctured (missing) coded bit in tracebackDecode's hard
// stream; values above it are out of alphabet and mismatch both outputs.
const erasure uint8 = 2

// branchOut is the per-state branch output table the references read:
// branchOut[state][input] = (outA, outB).
var branchOut = func() (out [numStates][2][2]uint8) {
	for s := range out {
		for in := range out[s] {
			reg := uint32(s)<<1 | uint32(in)
			out[s][in] = [2]uint8{parity7(reg & genA), parity7(reg & genB)}
		}
	}
	return out
}()

// tracebackDecode is the hard-decision reference: the add-compare-select
// recursion over a depunctured 0/1/erasure stream, with an explicit
// predecessor matrix for an unambiguous traceback.
func tracebackDecode(seq []uint8, numDataBits int, terminated bool) []uint8 {
	const inf = int32(1) << 30
	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}
	prev := make([][numStates]uint8, numDataBits) // predecessor state

	for t := 0; t < numDataBits; t++ {
		rA, rB := seq[2*t], seq[2*t+1]
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				ns := ((s << 1) | in) & (numStates - 1)
				bm := m
				if rA != erasure && branchOut[s][in][0] != rA {
					bm++
				}
				if rB != erasure && branchOut[s][in][1] != rB {
					bm++
				}
				if bm < next[ns] {
					next[ns] = bm
					prev[t][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}
	return traceback(metric, prev, terminated)
}

// softTracebackDecode is the soft-decision reference over a depunctured LLR
// stream: the branch metric accumulates the LLR mass that contradicts each
// candidate coded bit, with the same explicit predecessor matrix.
func softTracebackDecode(seq []LLR, numDataBits int, terminated bool) []uint8 {
	const inf = int32(1) << 30
	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}
	prev := make([][numStates]uint8, numDataBits)

	cost := func(llr LLR, bit uint8) int32 {
		// llr > 0 favors bit 0: transmitting bit 1 against it costs llr.
		if bit == 1 {
			if llr > 0 {
				return int32(llr)
			}
			return 0
		}
		if llr < 0 {
			return -int32(llr) // widen first: -LLR(-128) wraps to -128
		}
		return 0
	}

	for t := 0; t < numDataBits; t++ {
		lA, lB := seq[2*t], seq[2*t+1]
		for s := range next {
			next[s] = inf
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				ns := ((s << 1) | in) & (numStates - 1)
				bm := m + cost(lA, branchOut[s][in][0]) + cost(lB, branchOut[s][in][1])
				if bm < next[ns] {
					next[ns] = bm
					prev[t][ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}
	return traceback(metric, prev, terminated)
}

// traceback walks the predecessor matrix back from the end state: state 0
// for a terminated trellis, else the best final metric (lowest state on
// ties).
func traceback(metric []int32, prev [][numStates]uint8, terminated bool) []uint8 {
	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if metric[s] < metric[best] {
				best = s
			}
		}
	}
	out := make([]uint8, len(prev))
	state := best
	for t := len(prev) - 1; t >= 0; t-- {
		out[t] = uint8(state & 1)
		state = int(prev[t][state])
	}
	return out
}

// convEncode is convEncodeInto into a fresh slice.
func convEncode(bits []uint8, p Puncture) []uint8 {
	return convEncodeInto(nil, bits, p)
}

// hardLLRs maps coded bits to the unit LLRs the hard demapper emits.
func hardLLRs(bits []uint8) []LLR {
	out := make([]LLR, len(bits))
	for i, b := range bits {
		out[i] = hard(b)
	}
	return out
}

// hardBytes maps a hard depunctured LLR stream to tracebackDecode's
// alphabet: +1 → 0, −1 → 1, 0 → erasure.
func hardBytes(seq []LLR) []uint8 {
	out := make([]uint8, len(seq))
	for i, l := range seq {
		switch l {
		case 1:
			out[i] = 0
		case -1:
			out[i] = 1
		default:
			out[i] = erasure
		}
	}
	return out
}

// decodeHard runs hard coded bits through the receiver's depuncture and
// packed Viterbi, returning numDataBits decoded bits.
func decodeHard(coded []uint8, p Puncture, numDataBits int, terminated bool) ([]uint8, error) {
	var vs viterbiScratch
	out := make([]uint8, numDataBits)
	if err := vs.depunctureDecode(out, hardLLRs(coded), p, terminated); err != nil {
		return nil, err
	}
	return out, nil
}
