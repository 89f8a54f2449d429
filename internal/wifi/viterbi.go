package wifi

// The receive side carries every coded bit as an LLR: the hard demapper
// emits unit LLRs (±1), the soft demapper clipped max-log LLRs, and
// depuncturing inserts 0 at punctured positions. One packed Viterbi kernel
// decodes all three.
//
// Bit packing: the K=7 code has exactly 64 trellis states, so one uint64
// per trellis step records every add-compare-select decision: bit ns set
// means state ns took its high predecessor (ns>>1 | 32) rather than its low
// one (ns>>1). That is 8 bytes per step in codec-owned scratch, and the
// traceback is shift/mask arithmetic. Path metrics live in two arrays that
// ping-pong per step.
//
// Branch metrics: each step's two LLRs give the cost of emitting a 1,
// max(l, 0), and of emitting a 0, max(−l, 0), summed into a [4]int32 row
// indexed by the branch's coded pair. A unit LLR costs exactly its Hamming
// distance and a zero LLR nothing, so the hard path decodes as a
// hard-decision Viterbi with erasures. Ties resolve to the low predecessor,
// the order of an ascending relaxation with strict-less replacement; the
// differential tests pin the kernel `==` against both references (hard and
// soft) kept in viterbi_ref_test.go.
//
// Codeword fast path: a stream whose nonzero LLRs all agree with one
// codeword from state 0 (ending in state 0 when terminated) decodes to that
// codeword in one pass without the trellis. It costs 0, and any other path
// costs at least 1 at the step where it first leaves it, so it is the
// trellis's unique minimum and the ACS would return it whatever the
// tie-break (DESIGN.md §12).

// LLR is a clipped integer log-likelihood ratio: positive favors bit 0, and
// 0 is an erasure.
type LLR int8

// hard is the unit LLR of a hard decision: +1 for bit 0, −1 for bit 1.
func hard(bit uint8) LLR { return 1 - 2*LLR(bit) }

// viterbiScratch holds the working storage of one packed decode.
type viterbiScratch struct {
	metric    [numStates]int32 // path metrics (current step)
	next      [numStates]int32 // path metrics (next step)
	decisions []uint64         // one decision word per trellis step
	seq       []LLR            // depunctured coded stream (2 per data bit)
}

// vitInf is the unreachable-state metric. A branch costs at most 2·128 (two
// LLRs of −128), so after t steps every path metric lies in
// [0, vitInf + 256·t]. The select computes b − a of two such sums; that
// difference cannot wrap while vitInf + 256·(t+1) < 2³¹, i.e. for any
// trellis shorter than (2³¹ − 2²⁹)/256 ≈ 6.3M steps. The longest frame the
// 12-bit LENGTH field can describe (4095 bytes at 6 Mb/s) is 32,784 steps.
const vitInf = int32(1) << 29

// depunctureDecode depunctures coded at rate p and decodes len(out) data
// bits into out. The trellis starts in state 0; if the encoder was
// tail-terminated the final state 0 is forced, otherwise the best end state
// wins.
func (v *viterbiScratch) depunctureDecode(out []uint8, coded []LLR, p Puncture, terminated bool) error {
	seq, err := depunctureInto(v.seq[:0], coded, p, len(out))
	if err != nil {
		return err
	}
	v.seq = seq
	v.decode(seq, out, terminated)
	return nil
}

// decode writes the decoded data bits of the depunctured LLR stream seq
// (len(seq) must be 2*len(out)) to out: by decodeClean when seq is already
// a codeword, else by the packed add-compare-select recursion. Allocation
// free once the scratch has grown to the frame's step count.
func (v *viterbiScratch) decode(seq []LLR, out []uint8, terminated bool) {
	if v.decodeClean(seq, out, terminated) {
		return
	}
	n := len(out)
	if cap(v.decisions) < n {
		v.decisions = make([]uint64, n)
	}
	decisions := v.decisions[:n]
	m, nx := &v.metric, &v.next
	m[0] = 0
	for s := 1; s < numStates; s++ {
		m[s] = vitInf
	}

	seq = seq[:2*n] // a short stream panics here, not mid-trellis
	for steps := decisions; len(steps) > 0 && len(seq) >= 2; steps, seq = steps[1:], seq[2:] {
		lA, lB := int32(seq[0]), int32(seq[1])
		a1, a0 := max(lA, 0), max(-lA, 0)
		b1, b0 := max(lB, 0), max(-lB, 0)
		cost := [4]int32{a0 + b0, a0 + b1, a1 + b0, a1 + b1}
		// Complementing both coded bits swaps a0↔a1 and b0↔b1, so
		// cost[p] + cost[p^3] is the same for every p.
		tot := a0 + a1 + b0 + b1
		var dec uint64
		// Butterfly over predecessor pairs: states k and k+32 are the two
		// predecessors of both next-states 2k and 2k+1. Both generators tap
		// the input bit and the oldest register bit, so flipping either
		// complements both coded outputs: with p = branchPair[k][0], k
		// reaches 2k at c = cost[p] and 2k+1 at c2 = cost[p^3], and k+32 the
		// other way round. Each select is branch free: s is all ones exactly
		// when the high predecessor is strictly cheaper, so the low one wins
		// ties, and its low bit is the decision.
		for k := 0; k < numStates/2; k++ {
			m0, m1 := m[k], m[k+numStates/2]
			c := cost[branchPair[k][0]&3]
			c2 := tot - c
			a, b := m0+c, m1+c2
			d := b - a
			s := d >> 31
			nx[2*k] = a + d&s
			a, b = m0+c2, m1+c
			d2 := b - a
			s2 := d2 >> 31
			nx[2*k+1] = a + d2&s2
			// Decisions enter at the top two bits and shift down, so after
			// the 32nd butterfly the pair of 2k sits at bits 2k and 2k+1.
			dec = dec>>2 | uint64(uint32(s&1|s2&2))<<62
		}
		steps[0] = dec
		m, nx = nx, m
	}

	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if m[s] < m[best] {
				best = s
			}
		}
	}
	state := best
	for t := n - 1; t >= 0; t-- {
		out[t] = uint8(state & 1)
		state = state>>1 | int(decisions[t]>>uint(state)&1)<<5
	}
}

// decodeClean decodes seq in one pass without the trellis when its nonzero
// LLRs are a codeword from state 0 (ending in state 0 when terminated),
// writes it to out and reports true; otherwise it reports false, leaving
// out partly written. Both generators tap the current input bit, so input 1
// complements both coded bits of input 0: the first nonzero LLR of a step
// fixes the input, and the other, when nonzero, must agree with it. A step
// with no nonzero LLR is left to the trellis.
func (v *viterbiScratch) decodeClean(seq []LLR, out []uint8, terminated bool) bool {
	seq = seq[:2*len(out)]
	state := 0
	for o := out; len(o) > 0 && len(seq) >= 2; o, seq = o[1:], seq[2:] {
		lA, lB := seq[0], seq[1]
		// sA, sB: the hard decisions (1 for a negative LLR).
		sA, sB := uint8(lA)>>7, uint8(lB)>>7
		p := branchPair[state&(numStates-1)][0] // coded pair of input 0
		var in uint8
		switch {
		case lA != 0:
			in = p>>1 ^ sA
			if lB != 0 && p&1^in != sB {
				return false
			}
		case lB != 0:
			in = p&1 ^ sB
		default:
			return false
		}
		o[0] = in
		state = state<<1 | int(in) // the low six bits are the encoder state
	}
	return !terminated || state&(numStates-1) == 0
}
