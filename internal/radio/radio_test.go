package radio

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/jammer"
	"repro/internal/trigger"
)

func TestTuningRange(t *testing.T) {
	r := New()
	if r.CenterFreq() != 2.484e9 {
		t.Errorf("default center %v, want WiFi channel 14", r.CenterFreq())
	}
	if err := r.Tune(2.608e9); err != nil { // the paper's WiMAX frequency
		t.Error(err)
	}
	if err := r.Tune(100e6); err == nil {
		t.Error("below SBX range accepted")
	}
	if err := r.Tune(5e9); err == nil {
		t.Error("above SBX range accepted")
	}
}

func TestProcessRequiresStart(t *testing.T) {
	r := New()
	if _, err := r.Process(make(dsp.Samples, 10)); err == nil {
		t.Error("Process before Start accepted")
	}
	r.Start()
	if !r.Started() {
		t.Error("Started flag")
	}
	if _, err := r.Process(make(dsp.Samples, 10)); err != nil {
		t.Error(err)
	}
}

func TestSourceRateResampling(t *testing.T) {
	r := New()
	r.Start()
	if err := r.SetSourceRate(0); err == nil {
		t.Error("zero source rate accepted")
	}
	// 20 MSPS source: 1000 input samples -> ~1250 at 25 MSPS.
	if err := r.SetSourceRate(20_000_000); err != nil {
		t.Fatal(err)
	}
	out, err := r.Process(make(dsp.Samples, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 1248 || len(out) > 1252 {
		t.Errorf("resampled to %d samples, want ~1250", len(out))
	}
	// Native rate: passthrough length.
	if err := r.SetSourceRate(fpga.SampleRateHz); err != nil {
		t.Fatal(err)
	}
	out, err = r.Process(make(dsp.Samples, 500))
	if err != nil || len(out) != 500 {
		t.Errorf("native rate gave %d samples, %v", len(out), err)
	}
}

// ddcRadio returns a started 20 MSPS-source radio whose energy trigger
// fires WGN bursts on the loud spans of burstyCapture.
func ddcRadio(t testing.TB) *N210 {
	r := New()
	if err := r.SetSourceRate(20_000_000); err != nil {
		t.Fatal(err)
	}
	h := host.New(r.Core())
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ProgramTrigger(core.FusionSequence,
		[]trigger.Event{trigger.EventEnergyHigh}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ProgramJammer(host.Personality{Name: "append",
		Waveform: jammer.WaveformWGN, Uptime: 4 * time.Microsecond, Gain: 1}); err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r
}

// TestProcessAppendMatchesProcess streams a capture through the DDC radio's
// append path in uneven chunks onto a non-empty buffer and requires the
// appended tail to equal one whole-buffer Process call bit for bit, with
// the caller's prefix left untouched.
func TestProcessAppendMatchesProcess(t *testing.T) {
	input := burstyCapture(6000)
	want, err := ddcRadio(t).Process(input)
	if err != nil {
		t.Fatal(err)
	}
	if countNonZero(want) == 0 {
		t.Fatal("reference run never jammed")
	}
	for _, chunk := range []int{1, 7, 137, 4096} {
		r := ddcRadio(t)
		prefix := dsp.Samples{complex(1, 2), complex(3, 4)}
		got := append(dsp.Samples(nil), prefix...)
		for i := 0; i < len(input); i += chunk {
			if got, err = r.ProcessAppend(got, input[i:min(i+chunk, len(input))]); err != nil {
				t.Fatal(err)
			}
		}
		if got[0] != prefix[0] || got[1] != prefix[1] {
			t.Fatalf("chunk %d: prefix overwritten: %v", chunk, got[:2])
		}
		got = got[len(prefix):]
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d samples, want %d", chunk, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: tx[%d] = %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestProcessKeepsNoDDCScratch requires the allocating Process to leave the
// radio's reused DDC buffer alone, so a one-off large block is garbage once
// the call returns.
func TestProcessKeepsNoDDCScratch(t *testing.T) {
	r := ddcRadio(t)
	if _, err := r.Process(burstyCapture(6000)); err != nil {
		t.Fatal(err)
	}
	if cap(r.ddcOut) != 0 {
		t.Fatalf("Process left %d samples of DDC scratch in the radio", cap(r.ddcOut))
	}
}

func countNonZero(x dsp.Samples) int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

func TestProcessAppendZeroAllocWithDDC(t *testing.T) {
	r := ddcRadio(t)
	in := burstyCapture(4096)
	dst, err := r.ProcessAppend(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if dst, err = r.ProcessAppend(dst[:0], in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ProcessAppend with a DDC allocates %v times per call, want 0", allocs)
	}
}

func TestProcessAppendRequiresStart(t *testing.T) {
	dst := dsp.Samples{1}
	got, err := New().ProcessAppend(dst, make(dsp.Samples, 4))
	if err == nil {
		t.Fatal("ProcessAppend before Start accepted")
	}
	if len(got) != 1 {
		t.Fatalf("failed ProcessAppend changed dst to %d samples", len(got))
	}
}
