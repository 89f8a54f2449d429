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

// vitInf is the unreachable-state metric. Branch costs add at most 2·128
// per step, so reachable metrics stay far below it for any frame the 12-bit
// LENGTH field can describe, and int32 cannot overflow.
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

// decode runs the packed add-compare-select recursion over the depunctured
// LLR stream seq (len(seq) must be 2*len(out)) and writes the decoded data
// bits to out. Allocation free once the scratch has grown to the frame's
// step count.
func (v *viterbiScratch) decode(seq []LLR, out []uint8, terminated bool) {
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

	for t := 0; t < n; t++ {
		lA, lB := int32(seq[2*t]), int32(seq[2*t+1])
		a1, a0 := max(lA, 0), max(-lA, 0)
		b1, b0 := max(lB, 0), max(-lB, 0)
		cost := [4]int32{a0 + b0, a0 + b1, a1 + b0, a1 + b1}
		var dec uint64
		// Butterfly over predecessor pairs: states k and k+32 are the two
		// predecessors of both next-states 2k and 2k+1, so their metrics and
		// branch pairs load once and serve two compare-selects. The low
		// predecessor wins ties.
		for k := 0; k < numStates/2; k++ {
			m0, m1 := m[k], m[k+numStates/2]
			bp0, bp1 := branchPair[k], branchPair[k+numStates/2]
			ns := 2 * k
			a := m0 + cost[bp0[0]]
			b := m1 + cost[bp1[0]]
			if b < a {
				nx[ns] = b
				dec |= 1 << uint(ns)
			} else {
				nx[ns] = a
			}
			a = m0 + cost[bp0[1]]
			b = m1 + cost[bp1[1]]
			if b < a {
				nx[ns+1] = b
				dec |= 1 << uint(ns+1)
			} else {
				nx[ns+1] = a
			}
		}
		decisions[t] = dec
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
