// Package experiments drives the paper's evaluation: the detection
// characterization of §3 (Figs. 6-8), the testbed characterization of §4.1
// (Table 1), the WiFi jamming sweeps of §4.3 (Figs. 10-11), the WiMAX
// validation of §5 (Fig. 12), and the timeline/resource/reconfigurability
// analyses. Each experiment returns plain data that cmd/experiments prints
// and bench_test.go reports as benchmark metrics.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/radio"
	"repro/internal/telemetry"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// FrameKind selects the §3.2 test frame type.
type FrameKind uint8

// The frame types used in the detection characterization.
const (
	// FullFrame is a complete WiFi frame: 10 short preambles, 2 long
	// preambles, SIGNAL and payload.
	FullFrame FrameKind = iota
	// SingleLongPreamble is a pseudo-frame with one long training symbol.
	SingleLongPreamble
	// SingleShortPreamble is a pseudo-frame with one short training symbol.
	SingleShortPreamble
)

func (k FrameKind) String() string {
	switch k {
	case FullFrame:
		return "full-frames"
	case SingleLongPreamble:
		return "single-long-preamble"
	case SingleShortPreamble:
		return "single-short-preamble"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// DetectionConfig describes one detection characterization run.
type DetectionConfig struct {
	// Template arms the cross-correlator (nil runs energy-only).
	Template []complex128
	// ThresholdFrac is the correlator threshold as a fraction of the
	// template's ideal peak metric. Ignored when FATargetPerSec is set.
	ThresholdFrac float64
	// FATargetPerSec calibrates the correlator threshold to this
	// false-alarm rate on terminated input (the §3.2 methodology).
	FATargetPerSec float64
	// EnergyThresholdDB arms the energy differentiator (0 leaves it off).
	EnergyThresholdDB float64
	// Kind selects the transmitted frames.
	Kind FrameKind
	// FramesPerPoint is the number of frames per SNR point (the paper uses
	// 10,000; scale down for quick runs).
	FramesPerPoint int
	// SNRsDB lists the receiver SNR sweep points.
	SNRsDB []float64
	// Seed drives all noise and payload randomness.
	Seed int64
	// Impairments optionally distorts the received waveform with a
	// hardware-realistic front end before the jammer's DDC (zero value =
	// ideal front end).
	Impairments impair.Config
	// Event selects which detector's edges count as detections; defaults
	// to xcorr when a template is present, energy-high otherwise.
	Event trigger.Event
}

// DetectionPoint is one (SNR, detection) measurement.
type DetectionPoint struct {
	SNRdB float64
	// Pd is the fraction of frames with at least one detection.
	Pd float64
	// DetectionsPerFrame is the mean detection count per frame (Fig. 8's
	// excessive-detection region shows values above 1).
	DetectionsPerFrame float64
}

// DetectionResult is a full characterization curve plus the false-alarm
// calibration measured on a terminated (noise-only) input.
type DetectionResult struct {
	Points []DetectionPoint
	// FalseAlarmsPerSec is the detection rate with the input terminated
	// (§3.2's 50 Ω terminator methodology).
	FalseAlarmsPerSec float64
	// FACalibrationSec is how much noise-only time was simulated; the
	// paper observes 30 minutes, which is beyond a unit-test budget, so
	// runs report their actual window.
	FACalibrationSec float64
}

// noiseFloorPower keeps the quantizer exercised without dominating: about
// -60 dBFS per sample at the jammer ADC.
const noiseFloorPower = 1e-6

// frameWaveform builds one transmitted frame at 20 MSPS.
func frameWaveform(kind FrameKind, seq int, seed int64) (dsp.Samples, error) {
	switch kind {
	case SingleLongPreamble:
		return wifi.ModulatePseudoFrame(wifi.PseudoLong), nil
	case SingleShortPreamble:
		return wifi.ModulatePseudoFrame(wifi.PseudoShort), nil
	default:
		psdu := make([]byte, 64)
		for i := range psdu {
			psdu[i] = byte((seq + i) * 31)
		}
		return wifi.Modulate(wifi.AppendFCS(psdu), wifi.TxConfig{
			Rate:          wifi.Rate24,
			ScramblerSeed: uint8((seed+int64(seq))%126) + 1,
		})
	}
}

// buildDetector assembles a jammer radio with the requested detection
// configuration; the returned counter function reports the chosen event's
// edge count, and the returned event is the resolved detection event.
func buildDetector(cfg DetectionConfig) (*radio.N210, func() uint64, trigger.Event, error) {
	r := radio.New()
	if err := r.SetSourceRate(wifi.SampleRate); err != nil {
		return nil, nil, trigger.EventNone, err
	}
	h := host.New(r.Core())
	ev := cfg.Event
	if len(cfg.Template) > 0 {
		if cfg.FATargetPerSec > 0 {
			if _, err := h.ProgramCorrelatorFA(cfg.Template, cfg.FATargetPerSec); err != nil {
				return nil, nil, ev, err
			}
		} else {
			frac := cfg.ThresholdFrac
			if frac == 0 {
				frac = 0.5
			}
			if _, err := h.ProgramCorrelator(cfg.Template, frac); err != nil {
				return nil, nil, ev, err
			}
		}
		if ev == trigger.EventNone {
			ev = trigger.EventXCorr
		}
	}
	if cfg.EnergyThresholdDB > 0 {
		if _, err := h.ProgramEnergy(cfg.EnergyThresholdDB, 0); err != nil {
			return nil, nil, ev, err
		}
		if ev == trigger.EventNone {
			ev = trigger.EventEnergyHigh
		}
	}
	if ev == trigger.EventNone {
		return nil, nil, ev, fmt.Errorf("experiments: no detector armed")
	}
	if _, err := h.ProgramTrigger(core.FusionSequence, []trigger.Event{ev}, 0); err != nil {
		return nil, nil, ev, err
	}
	// The jammer must stay silent during characterization: minimum burst,
	// zero gain.
	if _, err := h.ProgramJammer(host.Personality{Gain: 0.001}); err != nil {
		return nil, nil, ev, err
	}
	r.Start()
	counter := func() uint64 {
		st := r.Core().Stats()
		switch ev {
		case trigger.EventXCorr:
			return st.XCorrDetections
		case trigger.EventEnergyLow:
			return st.EnergyLowDetections
		default:
			return st.EnergyHighDetections
		}
	}
	return r, counter, ev, nil
}

// CharacterizeDetection runs the §3.2 methodology: measure the false-alarm
// rate on a terminated input, then sweep SNR sending FramesPerPoint frames
// per point and counting per-frame detections.
func CharacterizeDetection(cfg DetectionConfig) (*DetectionResult, error) {
	if cfg.FramesPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: FramesPerPoint must be positive")
	}
	if len(cfg.SNRsDB) == 0 {
		return nil, fmt.Errorf("experiments: no SNR points")
	}

	// --- False-alarm calibration: terminated input, noise only. ---
	alarms, _, err := calibrateFalseAlarms(cfg, nil)
	if err != nil {
		return nil, err
	}
	faSec := float64(faCalibrationSamples()) / wifi.SampleRate
	result := &DetectionResult{
		FalseAlarmsPerSec: float64(alarms) / faSec,
		FACalibrationSec:  faSec,
	}

	// --- Pd sweep: one worker-pool item per SNR point. Each point builds
	// its own radio stack and derives every seed from (cfg.Seed, snr), so
	// the sweep is bit-identical at any pool width. ---
	result.Points = make([]DetectionPoint, len(cfg.SNRsDB))
	err = forEach(len(cfg.SNRsDB), func(pi int) error {
		p, err := detectPoint(cfg, cfg.SNRsDB[pi], nil, nil)
		result.Points[pi] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// calibrateFalseAlarms runs the §3.2 false-alarm calibration on a fresh
// detector: faCalibrationSamples of noise-floor noise and nothing else (the
// terminated input). rec, when non-nil, journals the run. It returns the
// detection count and the resolved detection event.
func calibrateFalseAlarms(cfg DetectionConfig, rec telemetry.Recorder) (uint64, trigger.Event, error) {
	r, count, ev, err := buildDetector(cfg)
	if err != nil {
		return 0, ev, err
	}
	if rec != nil {
		r.Core().SetRecorder(rec)
	}
	noise := dsp.NewNoiseSource(noiseFloorPower, cfg.Seed+9999)
	if err := streamNoise(r, noise, faCalibrationSamples()); err != nil {
		return 0, ev, err
	}
	return count(), ev, nil
}

// detectPoint measures one SNR point: FramesPerPoint frames through a fresh
// detector, every seed derived from (cfg.Seed, snr). rec, when non-nil,
// journals the run, and window, when non-nil, receives each frame's clock
// window on the core.
func detectPoint(cfg DetectionConfig, snr float64, rec telemetry.Recorder,
	window func(frame int, start, end uint64)) (DetectionPoint, error) {
	r, count, _, err := buildDetector(cfg)
	if err != nil {
		return DetectionPoint{}, err
	}
	if rec != nil {
		r.Core().SetRecorder(rec)
	}
	clock := r.Core().Clock()
	// The paper sends 130 frames/s; the inter-frame gap only needs to
	// re-arm the detectors.
	feed := frameFeed{
		r:     r,
		noise: dsp.NewNoiseSource(noiseFloorPower, cfg.Seed+int64(snr*100)),
		front: impair.New(cfg.Impairments),
		amp:   snrAmplitude(snr),
		lead:  interFrameGap,
	}
	framesDetected := 0
	var detections uint64
	for f := 0; f < cfg.FramesPerPoint; f++ {
		wave, err := frameWaveform(cfg.Kind, f, cfg.Seed)
		if err != nil {
			return DetectionPoint{}, err
		}
		before, start := count(), clock.Cycle()
		if err := feed.send(wave); err != nil {
			return DetectionPoint{}, err
		}
		if window != nil {
			window(f, start, clock.Cycle())
		}
		d := count() - before
		if d > 0 {
			framesDetected++
		}
		detections += d
	}
	return DetectionPoint{
		SNRdB:              snr,
		Pd:                 float64(framesDetected) / float64(cfg.FramesPerPoint),
		DetectionsPerFrame: float64(detections) / float64(cfg.FramesPerPoint),
	}, nil
}

// snrAmplitude is the frame amplitude that puts a unit-power frame snrDB
// over the noise floor.
func snrAmplitude(snrDB float64) float64 {
	return math.Sqrt(noiseFloorPower * dsp.FromDB(snrDB))
}

// frameFeed streams a sequence of frames through a radio, one reused input
// and one reused output buffer for the whole sequence: each frame is padded
// with lead idle samples on both sides, scaled from unit power to amp, run
// through the front-end impairments (skipped when front is nil, so an ideal
// front end costs nothing), summed with the noise floor and processed.
type frameFeed struct {
	r     *radio.N210
	noise *dsp.NoiseSource
	front *impair.Chain
	amp   float64
	lead  int

	buf, tx dsp.Samples
}

// send feeds one frame through the radio.
func (f *frameFeed) send(wave dsp.Samples) error {
	buf := dsp.PadInto(f.buf, wave, f.lead, f.lead)
	f.buf = buf
	scale := f.amp / math.Sqrt(wave.Power())
	noise, front := f.noise, f.front
	if front != nil {
		for i, v := range buf {
			buf[i] = front.ProcessSample(v*complex(scale, 0)) + noise.Sample()
		}
	} else {
		for i, v := range buf {
			buf[i] = v*complex(scale, 0) + noise.Sample()
		}
	}
	var err error
	f.tx, err = f.r.ProcessAppend(f.tx[:0], buf)
	return err
}

// faChunk is the block size in which a false-alarm calibration streams its
// noise through the radio: small enough that the stream's buffers stay in
// cache, and the core's block path is exact at any block size.
const faChunk = 4096

// streamNoise feeds n samples of noise through r in faChunk blocks over one
// reused input and one reused output buffer. The noise draws and the
// core's detections are those of a single n-sample Process call.
func streamNoise(r *radio.N210, noise *dsp.NoiseSource, n int) error {
	in := make(dsp.Samples, min(n, faChunk))
	var out dsp.Samples
	for n > 0 {
		blk := in[:min(n, len(in))]
		noise.Fill(blk)
		var err error
		if out, err = r.ProcessAppend(out[:0], blk); err != nil {
			return err
		}
		n -= len(blk)
	}
	return nil
}

// interFrameGap is the idle padding around each characterization frame at
// 20 MSPS; enough for the energy differentiator's compare pipeline to see
// the fall and re-arm.
const interFrameGap = 256

// faCalibrationScale multiplies the noise-only calibration window;
// cmd/experiments -full raises it for tighter false-alarm estimates.
var faCalibrationScale = 1

// faCalibrationSamples is the length of the noise-only calibration stream:
// 2M samples at 20 MSPS input (2.5M at the core) ≈ 0.1 s. Kept modest;
// cmd/experiments -full raises it via SetFACalibrationScale.
func faCalibrationSamples() int { return 2_000_000 * faCalibrationScale }

// SetFACalibrationScale adjusts the false-alarm window multiplier (≥1).
func SetFACalibrationScale(n int) {
	if n < 1 {
		n = 1
	}
	faCalibrationScale = n
}
