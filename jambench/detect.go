package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/radio"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// The detection characterization's fixed parameters, as in
// experiments.CharacterizeDetection.
const (
	noiseFloorPower = 1e-6
	faSamples       = 2_000_000
	interFrameGap   = 256
)

// detectSweep runs the Fig. 6 long-preamble, Fig. 7 short-preamble and
// Fig. 8 energy curves.
type detectSweep struct {
	cfgs   []experiments.DetectionConfig
	names  []string
	tr     *tracer
	frames [3]int // waveform length per FrameKind
}

func newDetectSweep(seed int64, sz sizes) (*detectSweep, error) {
	off := seedOffset(seed)
	cfgs := []experiments.DetectionConfig{
		experiments.Fig6Config(experiments.SingleLongPreamble, false, sz.detectFrames),
		experiments.Fig7Config(sz.detectFrames),
		experiments.Fig8Config(sz.detectFrames),
	}
	for i := range cfgs {
		cfgs[i].SNRsDB = sz.snrs
		cfgs[i].Seed += off
	}
	w := &detectSweep{cfgs: cfgs, names: []string{"fig6", "fig7", "fig8"}}
	for k := range w.frames {
		wave, err := frameWaveform(experiments.FrameKind(k), 0, 1)
		if err != nil {
			return nil, err
		}
		w.frames[k] = len(wave)
	}
	// The first radio stack of the sweep: Fig. 6's FA-calibrated detector.
	t := newTracer()
	if _, _, _, err := buildDetector(t, cfgs[0]); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *detectSweep) prepare(width int, tr *tracer) error {
	w.tr = tr
	experiments.SetParallelism(width)
	return nil
}

func (w *detectSweep) run() (result, error) {
	res := &detectResult{w: w}
	for _, cfg := range w.cfgs {
		var r *experiments.DetectionResult
		var err error
		if w.tr != nil {
			w.tr.begin(lExperiments)
			r, err = characterize(w.tr, cfg)
			w.tr.end(0)
		} else {
			r, err = experiments.CharacterizeDetection(cfg)
		}
		if err != nil {
			return nil, err
		}
		res.curves = append(res.curves, r)
	}
	return res, nil
}

type detectResult struct {
	w      *detectSweep
	curves []*experiments.DetectionResult
}

func (r *detectResult) figures() figures {
	var f figures
	for i, c := range r.curves {
		n := r.w.names[i]
		f.add(n+".fa_per_s", c.FalseAlarmsPerSec)
		f.add(n+".fa_s", c.FACalibrationSec)
		for _, p := range c.Points {
			f.add(fmt.Sprintf("%s.snr%g.pd", n, p.SNRdB), p.Pd)
			f.add(fmt.Sprintf("%s.snr%g.dpf", n, p.SNRdB), p.DetectionsPerFrame)
		}
	}
	return f
}

// bands holds every curve to the paper's shape: the long-preamble
// correlator (Fig. 6) and the short-preamble correlator on full frames
// (Fig. 7) reach ~100% detection by a few dB SNR and miss most frames at
// -6 dB, a full frame's ten short preambles give up to ten detections, and
// the 10 dB energy differentiator (Fig. 8) stays silent at low SNR and
// fires on every frame well above its threshold. Each calibration run's
// false-alarm rate stays near the §3.2 targets of well under one per
// second (at most 5 counts in its 0.1 s window).
func (r *detectResult) bands() []check {
	var out []check
	for i, c := range r.curves {
		n := r.w.names[i]
		out = append(out, check{n + ".fa", c.FalseAlarmsPerSec <= 5/c.FACalibrationSec})
		for _, p := range c.Points {
			ok := p.DetectionsPerFrame >= p.Pd && p.Pd >= 0 && p.Pd <= 1
			switch n {
			case "fig6":
				ok = ok && p.DetectionsPerFrame <= 2
				ok = ok && (p.SNRdB < 4 || p.Pd >= 0.97) && (p.SNRdB > -6 || p.Pd <= 0.5)
			case "fig7":
				ok = ok && p.DetectionsPerFrame <= 10
				ok = ok && (p.SNRdB < 2 || p.Pd >= 0.97) && (p.SNRdB > -6 || p.Pd <= 0.5)
				ok = ok && (p.SNRdB < 6 || p.DetectionsPerFrame >= 6)
			case "fig8":
				ok = ok && p.DetectionsPerFrame <= 3
				ok = ok && (p.SNRdB > 2 || p.Pd <= 0.05) && (p.SNRdB < 12 || p.Pd >= 0.97)
			}
			out = append(out, check{fmt.Sprintf("%s.snr%g", n, p.SNRdB), ok})
		}
	}
	return out
}

// airSeconds is the terminated calibration stream plus every padded frame,
// at the 20 MSPS WiFi source rate.
func (r *detectResult) airSeconds() float64 {
	var n float64
	for _, cfg := range r.w.cfgs {
		per := float64(r.w.frames[cfg.Kind] + 2*interFrameGap)
		n += faSamples + float64(len(cfg.SNRsDB)*cfg.FramesPerPoint)*per
	}
	return n / wifi.SampleRate
}

func (r *detectResult) items() float64 {
	var n int
	for _, cfg := range r.w.cfgs {
		n += len(cfg.SNRsDB) * cfg.FramesPerPoint
	}
	return float64(n)
}

// frameWaveform mirrors the characterization's test frame of one kind.
func frameWaveform(kind experiments.FrameKind, seq int, seed int64) (dsp.Samples, error) {
	switch kind {
	case experiments.SingleLongPreamble:
		return wifi.ModulatePseudoFrame(wifi.PseudoLong), nil
	case experiments.SingleShortPreamble:
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

// newDDC builds the resampler radio.N210.SetSourceRate installs for a
// source rate other than the native 25 MSPS.
func newDDC(sourceHz int) *dsp.Resampler {
	a, b := fpga.SampleRateHz, sourceHz
	for b != 0 {
		a, b = b, a%b
	}
	return dsp.NewResampler(fpga.SampleRateHz/a, sourceHz/a, 8)
}

// buildDetector mirrors the characterization's detector stack with the DDC
// split out ahead of a native-rate radio.
func buildDetector(t *tracer, cfg experiments.DetectionConfig) (*radio.N210, *dsp.Resampler, func() uint64, error) {
	t.begin(lHost)
	defer t.end(0)
	r := radio.New()
	ddc := newDDC(wifi.SampleRate)
	h := host.New(r.Core())
	start := time.Now()
	defer func() { t.program += time.Since(start) }()
	// The Fig. 6-8 configurations arm either an FA-calibrated correlator
	// or the energy differentiator, and count that detector's edges.
	ev := trigger.EventXCorr
	if len(cfg.Template) > 0 {
		if _, err := h.ProgramCorrelatorFA(cfg.Template, cfg.FATargetPerSec); err != nil {
			return nil, nil, nil, err
		}
	} else {
		ev = trigger.EventEnergyHigh
		if _, err := h.ProgramEnergy(cfg.EnergyThresholdDB, 0); err != nil {
			return nil, nil, nil, err
		}
	}
	if _, err := h.ProgramTrigger(core.FusionSequence, []trigger.Event{ev}, 0); err != nil {
		return nil, nil, nil, err
	}
	if _, err := h.ProgramJammer(host.Personality{Gain: 0.001}); err != nil {
		return nil, nil, nil, err
	}
	r.Start()
	counter := func() uint64 {
		st := r.Core().Stats()
		if ev == trigger.EventXCorr {
			return st.XCorrDetections
		}
		return st.EnergyHighDetections
	}
	return r, ddc, counter, nil
}

// characterize is the traced replica of experiments.CharacterizeDetection
// at pool width 1: the per-sample front-end/noise loop becomes one
// impair.Chain.ProcessInto and one NoiseSource.AddTo per frame, which
// compute the same sums in the same order.
func characterize(t *tracer, cfg experiments.DetectionConfig) (*experiments.DetectionResult, error) {
	r, ddc, count, err := buildDetector(t, cfg)
	if err != nil {
		return nil, err
	}
	t.begin(lNoise)
	noise := dsp.NewNoiseSource(noiseFloorPower, cfg.Seed+9999)
	block := noise.Block(faSamples)
	t.end(faSamples)
	if _, err := t.process(r, ddc, block); err != nil {
		return nil, err
	}
	t.addRadio(r)
	faSec := float64(faSamples) / wifi.SampleRate
	result := &experiments.DetectionResult{
		FalseAlarmsPerSec: float64(count()) / faSec,
		FACalibrationSec:  faSec,
	}

	t.newSweep()
	result.Points = make([]experiments.DetectionPoint, len(cfg.SNRsDB))
	for pi, snr := range cfg.SNRsDB {
		t.begin(lPool)
		p, err := detectPoint(t, cfg, snr)
		t.endItem()
		if err != nil {
			return nil, err
		}
		result.Points[pi] = p
	}
	return result, nil
}

func detectPoint(t *tracer, cfg experiments.DetectionConfig, snr float64) (experiments.DetectionPoint, error) {
	r, ddc, count, err := buildDetector(t, cfg)
	if err != nil {
		return experiments.DetectionPoint{}, err
	}
	defer t.addRadio(r)
	t.begin(lImpair)
	front := impair.New(cfg.Impairments)
	t.end(0)
	t.begin(lNoise)
	noise := dsp.NewNoiseSource(noiseFloorPower, cfg.Seed+int64(snr*100))
	t.end(0)
	amp := math.Sqrt(noiseFloorPower * dsp.FromDB(snr))
	framesDetected := 0
	var detections uint64
	for f := 0; f < cfg.FramesPerPoint; f++ {
		t.begin(lWifiTX)
		wave, err := frameWaveform(cfg.Kind, f, cfg.Seed)
		t.end(len(wave))
		if err != nil {
			return experiments.DetectionPoint{}, err
		}
		buf := make(dsp.Samples, len(wave)+2*interFrameGap)
		copy(buf[interFrameGap:], wave)
		scale := amp / math.Sqrt(wave.Power())
		for i := range buf {
			buf[i] *= complex(scale, 0)
		}
		t.begin(lImpair)
		front.ProcessInto(buf, buf)
		t.end(len(buf))
		t.begin(lNoise)
		noise.AddTo(buf)
		t.end(len(buf))
		before := count()
		if _, err := t.process(r, ddc, buf); err != nil {
			return experiments.DetectionPoint{}, err
		}
		d := count() - before
		if d > 0 {
			framesDetected++
		}
		detections += d
	}
	return experiments.DetectionPoint{
		SNRdB:              snr,
		Pd:                 float64(framesDetected) / float64(cfg.FramesPerPoint),
		DetectionsPerFrame: float64(detections) / float64(cfg.FramesPerPoint),
	}, nil
}
