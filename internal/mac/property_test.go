package mac

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/wifi"
)

// Property tests of the DCF sequencer and ARF under scripted loss. quick
// draws a loss script, a loss level, a starting rate and a backoff seed; a
// fixed quick.Config.Rand keeps every run (and any counterexample)
// reproducible.

func quickConfig(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}
}

// scriptedAttempt is one transmission attempt of a scripted run: which MSDU
// it belonged to, what the sequencer asked for, the contention window its
// backoff was drawn from, and the scripted outcome.
type scriptedAttempt struct {
	msdu int
	TxAttempt
	cw int
	ok bool
}

// runScript sends 1+len(script)/4 MSDUs through a fresh sequencer. Attempt
// i fails when script[i mod len] < loss, so loss near 255 drives MSDUs into
// the retry limit and the window into CWMax. It returns every attempt and
// each MSDU's delivery verdict.
func runScript(script []uint8, loss, start uint8, seed int64) ([]scriptedAttempt, []bool) {
	s := NewSequencer(wifi.AllRates[int(start)%len(wifi.AllRates)], seed)
	var attempts []scriptedAttempt
	var delivered []bool
	for msdu := 0; msdu < 1+len(script)/4; msdu++ {
		ok, err := s.SendMSDU(100, func(a TxAttempt) bool {
			ok := len(script) == 0 || script[len(attempts)%len(script)] >= loss
			attempts = append(attempts, scriptedAttempt{msdu, a, s.backoff.CW(), ok})
			return ok
		})
		if err != nil {
			panic(err)
		}
		delivered = append(delivered, ok)
	}
	return attempts, delivered
}

// TestPropertySendMSDURetryLimit: an MSDU gets at most RetryLimit retries
// (RetryLimit+1 attempts, Retry counting 0, 1, ...); it is delivered exactly
// when its last attempt succeeded, and abandoned only after every allowed
// attempt failed.
func TestPropertySendMSDURetryLimit(t *testing.T) {
	f := func(script []uint8, loss, start uint8, seed int64) bool {
		attempts, delivered := runScript(script, loss, start, seed)
		perMSDU := make([][]scriptedAttempt, len(delivered))
		for _, a := range attempts {
			perMSDU[a.msdu] = append(perMSDU[a.msdu], a)
		}
		for m, as := range perMSDU {
			if len(as) == 0 || len(as) > RetryLimit+1 {
				return false
			}
			for i, a := range as {
				if a.Retry != i || (a.ok && i != len(as)-1) {
					return false
				}
			}
			last := as[len(as)-1]
			if delivered[m] != last.ok || (!last.ok && len(as) != RetryLimit+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(1)); err != nil {
		t.Error(err)
	}
}

// TestPropertyContentionWindowBounded: every backoff is drawn from a window
// in [CWMin, CWMax]; across one failed attempt the window at most doubles
// (2·CW+1, saturating at CWMax) and never shrinks, and after a success it is
// back at CWMin.
func TestPropertyContentionWindowBounded(t *testing.T) {
	f := func(script []uint8, loss, start uint8, seed int64) bool {
		attempts, _ := runScript(script, loss, start, seed)
		for i, a := range attempts {
			if a.cw < CWMin || a.cw > CWMax {
				return false
			}
			if i == 0 {
				if a.cw != CWMin {
					return false
				}
				continue
			}
			prev := attempts[i-1]
			switch {
			case prev.ok && a.cw != CWMin:
				return false
			case !prev.ok && (a.cw < prev.cw || a.cw > 2*prev.cw+1):
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(2)); err != nil {
		t.Error(err)
	}
}

// TestPropertyARFAdjacentSteps: between consecutive attempts the rate moves
// by at most one step of AllRates — down only after a failure, up only
// after a success — and never leaves AllRates.
func TestPropertyARFAdjacentSteps(t *testing.T) {
	lo, hi := wifi.AllRates[0], wifi.AllRates[len(wifi.AllRates)-1]
	f := func(script []uint8, loss, start uint8, seed int64) bool {
		attempts, _ := runScript(script, loss, start, seed)
		for i, a := range attempts {
			if a.Rate < lo || a.Rate > hi {
				return false
			}
			if i == 0 {
				continue
			}
			prev := attempts[i-1]
			switch step := int(a.Rate) - int(prev.Rate); {
			case step > 1 || step < -1:
				return false
			case step == 1 && !prev.ok, step == -1 && prev.ok:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(3)); err != nil {
		t.Error(err)
	}
}
