// Package radio models the USRP N210 software-defined radio with its SBX
// front end (§2.1): a full-duplex transceiver whose receive path carries
// down-converted, decimated baseband at the fixed 25 MSPS rate into the
// custom DSP core, and whose transmit path carries the core's jamming
// output through the DUC back to RF.
//
// Both chains are initialized together at start-up, as the paper does to
// eliminate RX/TX switching time. Front-end tuning covers the SBX's
// 400 MHz – 4.4 GHz range with up to 40 MHz of instantaneous bandwidth.
package radio

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fpga"
)

// SBX front-end limits.
const (
	// MinFreqHz and MaxFreqHz bound the SBX tuning range.
	MinFreqHz = 400e6
	MaxFreqHz = 4.4e9
	// MaxBandwidthHz is the SBX instantaneous bandwidth.
	MaxBandwidthHz = 40e6
)

// N210 is the radio: front-end state plus the custom DSP core nested in its
// DDC chain. Construct with New.
type N210 struct {
	core *core.Core

	centerHz float64

	ddc      *dsp.Resampler // source-rate → 25 MSPS, when needed
	ddcOut   dsp.Samples    // reused DDC output of the last ProcessAppend
	sourceHz int

	started bool
}

// New returns a radio with a fresh DSP core, tuned to WiFi channel 14
// (2.484 GHz, the paper's §4.1 setting).
func New() *N210 {
	return &N210{core: core.New(), centerHz: 2.484e9, sourceHz: fpga.SampleRateHz}
}

// Core exposes the custom DSP core (and through it the register bus).
func (r *N210) Core() *core.Core { return r.core }

// Tune sets the RF center frequency.
func (r *N210) Tune(hz float64) error {
	if hz < MinFreqHz || hz > MaxFreqHz {
		return fmt.Errorf("radio: %.0f Hz outside SBX range [%.0f, %.0f]",
			hz, MinFreqHz, MaxFreqHz)
	}
	r.centerHz = hz
	return nil
}

// CenterFreq returns the tuned center frequency in Hz.
func (r *N210) CenterFreq() float64 { return r.centerHz }

// Start initializes both chains simultaneously (§2.1: "we initialize both
// TX and RX chains simultaneously in the host application at start-up").
func (r *N210) Start() {
	r.started = true
	r.core.ResetDatapath()
}

// Started reports whether the chains are streaming.
func (r *N210) Started() bool { return r.started }

// SetSourceRate installs a DDC resampler for input delivered at a rate
// other than 25 MSPS; the rational ratio 25 MSPS / sourceHz is reduced
// internally. Pass fpga.SampleRateHz to disable resampling.
func (r *N210) SetSourceRate(sourceHz int) error {
	if sourceHz <= 0 {
		return fmt.Errorf("radio: invalid source rate %d", sourceHz)
	}
	r.sourceHz = sourceHz
	if sourceHz == fpga.SampleRateHz {
		r.ddc = nil
		return nil
	}
	g := gcd(fpga.SampleRateHz, sourceHz)
	r.ddc = dsp.NewResampler(fpga.SampleRateHz/g, sourceHz/g, 8)
	return nil
}

// GroupDelayCycles returns the receive front end's group delay in hardware
// clock cycles, rounded up: the DDC resampler's anti-aliasing filter delays
// every sample by this much before the detectors see it, so any end-to-end
// latency budget anchored at the antenna must allow for it on top of the
// detection + trigger timeline. Zero when no resampling is configured.
func (r *N210) GroupDelayCycles() uint64 {
	if r.ddc == nil {
		return 0
	}
	return uint64(math.Ceil(r.ddc.GroupDelayOutputSamples() * fpga.CyclesPerSample))
}

// MarkFrame journals a telemetry frame-start marker for a frame that will
// begin offsetSourceSamples into the *next* buffer handed to Process. The
// offset is converted from source-rate samples to core samples through the
// DDC ratio, so reaction-latency histograms measure from the frame boundary
// the core actually sees.
func (r *N210) MarkFrame(offsetSourceSamples int) {
	if offsetSourceSamples < 0 {
		offsetSourceSamples = 0
	}
	coreSamples := uint64(offsetSourceSamples) * fpga.SampleRateHz / uint64(r.sourceHz)
	cycle := r.core.Clock().Cycle() + coreSamples*fpga.CyclesPerSample
	r.core.MarkFrameStart(cycle)
}

// Process streams a block of received baseband through the DDC (if any) and
// the custom DSP core, returning the transmit-path output at 25 MSPS in a
// fresh buffer. The DDC output goes to a fresh buffer as well, so unlike
// ProcessAppend the radio keeps no scratch the size of rx after the call.
func (r *N210) Process(rx dsp.Samples) (dsp.Samples, error) {
	if !r.started {
		return nil, fmt.Errorf("radio: chains not started")
	}
	in := rx
	if r.ddc != nil {
		in = r.ddc.Process(rx)
	}
	tx := make(dsp.Samples, len(in))
	r.core.ProcessBlock(in, tx)
	return tx, nil
}

// ProcessAppend streams rx through the DDC (if any) and the core and
// appends the 25 MSPS transmit output to dst, returning the extended slice.
// It is the allocation-free entry point for drivers that reuse one output
// buffer: the DDC writes into a scratch buffer the radio owns and reuses,
// and dst grows only when it lacks the capacity. The caller owns dst; its
// existing contents are left as they are, and the appended tail must not
// overlap rx. The core runs in block mode.
func (r *N210) ProcessAppend(dst, rx dsp.Samples) (dsp.Samples, error) {
	if !r.started {
		return dst, fmt.Errorf("radio: chains not started")
	}
	in := rx
	if r.ddc != nil {
		r.ddcOut = r.ddc.ProcessInto(r.ddcOut[:0], rx)
		in = r.ddcOut
	}
	n := len(dst)
	dst = slices.Grow(dst, len(in))[:n+len(in)]
	r.core.ProcessBlock(in, dst[n:])
	return dst, nil
}

// ProcessInto is the allocation-free form of Process for callers that own
// their transmit buffers (the flowgraph runtime's reused ring chunks): rx is
// streamed through the core into tx, which must be at least len(rx) long.
// It requires the radio to run at the native 25 MSPS — a DDC resampler
// changes the sample count, so a rate-converting radio cannot be a 1:1
// streaming stage — and returns an error otherwise.
func (r *N210) ProcessInto(rx, tx dsp.Samples) error {
	if !r.started {
		return fmt.Errorf("radio: chains not started")
	}
	if r.ddc != nil {
		return fmt.Errorf("radio: ProcessInto needs the native %d Hz rate (DDC configured for %d Hz input)",
			fpga.SampleRateHz, r.sourceHz)
	}
	r.core.ProcessBlock(rx, tx[:len(rx)])
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
