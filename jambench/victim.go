package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/iperf"
	"repro/internal/jammer"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/testbed"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// victimLink runs the Fig. 10/11 sweep against the reactive jammer with a
// 0.1 ms WGN burst, at two seeds per pass. RunJamSweep gives every
// attenuation the same seed, so the six jammed points repeat one draw of
// MAC backoffs and the sweep's simulated air time swings ±10% with the
// seed; a second sweep at its own seed halves that spread in the
// realtime factor.
type victimLink struct {
	cfgs []experiments.JamSweepConfig
	tr   *tracer
}

// victimSweeps is the number of sweeps, each at its own seed, in one pass.
const victimSweeps = 2

func newVictimLink(seed int64, sz sizes) (*victimLink, error) {
	w := &victimLink{}
	for i := 0; i < victimSweeps; i++ {
		cfg := experiments.DefaultJamSweep(iperf.JamReactive, 100*time.Microsecond)
		cfg.Attenuations = sz.attenuations
		cfg.Packets = sz.victimPackets
		cfg.Seed += seedOffset(seed) + int64(i)*500
		w.cfgs = append(w.cfgs, cfg)
	}
	// The first radio stack of the pass: the reactive jammer of its first
	// link.
	link, jam := point(w.cfgs[0], 0)
	if _, err := newLinkSim(newTracer(), link, jam); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *victimLink) prepare(width int, tr *tracer) error {
	w.tr = tr
	experiments.SetParallelism(width)
	return nil
}

// point mirrors the link and jammer configuration RunJamSweep builds for
// attenuation i.
func point(cfg experiments.JamSweepConfig, i int) (iperf.LinkConfig, iperf.JammerConfig) {
	link := iperf.DefaultLink()
	link.Packets = cfg.Packets
	link.PayloadBytes = cfg.PayloadBytes
	link.Seed = cfg.Seed
	jam := iperf.JammerConfig{
		Mode:          cfg.Mode,
		VariableAttDB: cfg.Attenuations[i],
		Personality: host.Personality{
			Waveform: jammer.WaveformWGN,
			Uptime:   cfg.Uptime,
			Gain:     1,
		},
	}
	return link, jam
}

func (w *victimLink) run() (result, error) {
	res := &victimResult{}
	for _, cfg := range w.cfgs {
		var pts []experiments.JamSweepPoint
		var err error
		if w.tr != nil {
			pts, err = jamSweep(w.tr, cfg)
		} else {
			pts, err = experiments.RunJamSweep(cfg)
		}
		if err != nil {
			return nil, err
		}
		res.sweeps = append(res.sweeps, pts)
	}
	return res, nil
}

// jamSweep is the traced replica of experiments.RunJamSweep at pool width 1.
func jamSweep(t *tracer, cfg experiments.JamSweepConfig) ([]experiments.JamSweepPoint, error) {
	t.begin(lExperiments)
	defer t.end(0)
	t.newSweep()
	pts := make([]experiments.JamSweepPoint, len(cfg.Attenuations))
	for i, att := range cfg.Attenuations {
		link, jam := point(cfg, i)
		t.begin(lPool)
		res, err := linkRun(t, link, jam)
		t.endItem()
		if err != nil {
			return nil, fmt.Errorf("sweep at %v dB: %w", att, err)
		}
		pts[i] = experiments.JamSweepPoint{VariableAttDB: att, Result: *res}
	}
	return pts, nil
}

type victimResult struct{ sweeps [][]experiments.JamSweepPoint }

// each calls fn for every point of every sweep with the point's figure
// prefix.
func (r *victimResult) each(fn func(prefix string, p experiments.JamSweepPoint)) {
	for s, pts := range r.sweeps {
		for _, p := range pts {
			fn(fmt.Sprintf("sweep%d.att%g", s, p.VariableAttDB), p)
		}
	}
}

func (r *victimResult) figures() figures {
	var f figures
	r.each(func(n string, p experiments.JamSweepPoint) {
		res := p.Result
		f.add(n+".bandwidth_kbps", res.BandwidthKbps)
		f.add(n+".prr", res.PRR)
		f.add(n+".delivered", float64(res.Delivered))
		f.add(n+".offered", float64(res.Offered))
		f.add(n+".sir_db", res.SIRdB)
		f.add(n+".link_dropped", b2f(res.LinkDropped))
		f.add(n+".final_rate_mbps", float64(res.FinalRate.Mbps()))
		f.add(n+".jam_airtime_frac", res.JamAirtimeFrac)
		f.add(n+".elapsed_ns", float64(res.Elapsed))
	})
	return f
}

// testbedSIROffsetDB is the SIR at the AP with the variable attenuator at
// 0 dB: Table 1's client→AP loss against the jammer→AP loss.
const testbedSIROffsetDB = -11.4

// bands holds each sweep point to Figs. 10/11: the SIR the AP measures
// tracks the attenuator within 2 dB; strong reactive jamming (SIR ≤ 4 dB)
// delivers nothing and drops the link; weak jamming (SIR ≥ 28 dB) leaves
// the 54 Mb/s link intact at the ~30 Mb/s UDP goodput of 802.11g.
func (r *victimResult) bands() []check {
	var out []check
	r.each(func(n string, p experiments.JamSweepPoint) {
		res := p.Result
		ok := math.Abs(res.SIRdB-(p.VariableAttDB+testbedSIROffsetDB)) <= 2
		ok = ok && res.JamAirtimeFrac > 0 && res.JamAirtimeFrac < 1
		if p.VariableAttDB <= 15 {
			ok = ok && res.Delivered == 0 && res.LinkDropped
		}
		if p.VariableAttDB >= 40 {
			ok = ok && res.PRR >= 0.95 && !res.LinkDropped && res.FinalRate == wifi.Rate54 &&
				res.BandwidthKbps >= 25_000 && res.BandwidthKbps <= 36_000
		}
		out = append(out, check{n, ok})
	})
	return out
}

// airSeconds is the simulated test duration the real testbed would need.
func (r *victimResult) airSeconds() float64 {
	var d time.Duration
	r.each(func(_ string, p experiments.JamSweepPoint) { d += p.Result.Elapsed })
	return d.Seconds()
}

func (r *victimResult) items() float64 {
	n := 0
	r.each(func(_ string, p experiments.JamSweepPoint) { n += p.Result.Offered })
	return float64(n)
}

// The iperf exchange's framing, as in package iperf.
const (
	leadSamples = 256
	ltsOffset   = leadSamples + 192
)

// linkSim is the traced replica of iperf's per-run state for the reactive
// jammer, with the jammer's DDC split out ahead of a native-rate radio.
type linkSim struct {
	t    *tracer
	link iperf.LinkConfig
	jcfg iperf.JammerConfig
	rng  *rand.Rand

	gClientAP, gAPClient, gClientJam, gAPJam, gJamAP, gJamClient float64

	noisePower                     float64
	apNoise, clientNoise, jamNoise *dsp.NoiseSource

	jammer        *radio.N210
	ddc           *dsp.Resampler
	downResampler *dsp.Resampler

	jamPowerAcc  float64
	jamActiveN   int
	sigPowerAtAP float64
	totalSamples int
	jamTXSamples int
}

// linkRun is the traced replica of iperf.Run for the configurations
// RunJamSweep builds here: a reactive jammer on the default energy trigger
// with an explicit burst personality. Any other path would fail the
// exactness gate.
func linkRun(t *tracer, link iperf.LinkConfig, jam iperf.JammerConfig) (*iperf.Result, error) {
	t.begin(lIperf)
	defer t.end(0)
	s, err := newLinkSim(t, link, jam)
	if err != nil {
		return nil, err
	}
	defer t.addRadio(s.jammer)
	return s.run()
}

func newLinkSim(t *tracer, link iperf.LinkConfig, jam iperf.JammerConfig) (*linkSim, error) {
	if jam.Mode != iperf.JamReactive {
		return nil, fmt.Errorf("replica covers the reactive jammer only, not %v", jam.Mode)
	}
	net := testbed.New()
	if err := net.SetVariableAttenuator(jam.VariableAttDB); err != nil {
		return nil, err
	}
	s := &linkSim{
		t: t, link: link, jcfg: jam,
		rng: rand.New(rand.NewSource(link.Seed)),

		gClientAP:  net.PathGain(testbed.PortClient, testbed.PortAP),
		gAPClient:  net.PathGain(testbed.PortAP, testbed.PortClient),
		gClientJam: net.PathGain(testbed.PortClient, testbed.PortJammerRX),
		gAPJam:     net.PathGain(testbed.PortAP, testbed.PortJammerRX),
		gJamAP:     net.PathGain(testbed.PortJammerTX, testbed.PortAP),
		gJamClient: net.PathGain(testbed.PortJammerTX, testbed.PortClient),

		noisePower: dsp.FromDB(link.NoiseFloorDB),
	}
	t.begin(lNoise)
	s.apNoise = dsp.NewNoiseSource(s.noisePower, link.Seed+101)
	s.clientNoise = dsp.NewNoiseSource(s.noisePower, link.Seed+202)
	s.jamNoise = dsp.NewNoiseSource(s.noisePower, link.Seed+303)
	t.end(0)
	if err := s.setupReactiveJammer(); err != nil {
		return nil, err
	}
	t.begin(lResample)
	s.downResampler = dsp.NewResampler(4, 5, 8)
	t.end(0)
	return s, nil
}

func (s *linkSim) setupReactiveJammer() error {
	t := s.t
	t.begin(lHost)
	defer t.end(0)
	r := radio.New()
	s.jammer = r
	s.ddc = newDDC(wifi.SampleRate)
	h := host.New(r.Core())
	start := time.Now()
	defer func() { t.program += time.Since(start) }()
	if _, err := h.ProgramJammer(s.jcfg.Personality); err != nil {
		return err
	}
	// iperf's default energy-high threshold (§3.2).
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		return err
	}
	if _, err := h.ProgramTrigger(core.FusionSequence, []trigger.Event{trigger.EventEnergyHigh}, 0); err != nil {
		return err
	}
	r.Start()
	return nil
}

func (s *linkSim) jamContribution(rxAtJam dsp.Samples) (dsp.Samples, error) {
	t := s.t
	in := rxAtJam.Clone()
	t.begin(lNoise)
	s.jamNoise.AddTo(in)
	t.end(len(in))
	tx25, err := t.process(s.jammer, s.ddc, in)
	if err != nil {
		return nil, err
	}
	s.jamTXSamples += countActive(tx25) * 4 / 5
	t.begin(lResample)
	tx20 := s.downResampler.Process(tx25)
	t.end(len(tx25))
	if len(tx20) < len(rxAtJam) {
		tx20 = append(tx20, make(dsp.Samples, len(rxAtJam)-len(tx20))...)
	}
	return tx20[:len(rxAtJam)], nil
}

func countActive(x dsp.Samples) int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// receive demodulates one PPDU and checks its FCS.
func (s *linkSim) receive(x dsp.Samples) bool {
	t := s.t
	t.begin(lWifiRX)
	res, err := wifi.Demodulate(x, ltsOffset-48, ltsOffset+48)
	t.end(len(x))
	t.rxFrames++
	if err != nil {
		return false
	}
	t.begin(lWifiRX)
	_, ok := wifi.CheckFCS(res.PSDU)
	t.end(0)
	if ok {
		t.fcsOK++
	}
	return ok
}

func (s *linkSim) exchange(att mac.TxAttempt, psdu []byte) (bool, error) {
	t := s.t
	t.begin(lIperf)
	defer t.end(0)
	t.attempts++
	seed := uint8(s.rng.Intn(127) + 1)
	t.begin(lWifiTX)
	txData, err := wifi.Modulate(psdu, wifi.TxConfig{Rate: att.Rate, ScramblerSeed: seed})
	t.end(len(txData))
	if err != nil {
		return false, err
	}

	n := leadSamples + len(txData) + leadSamples
	clientTX := make(dsp.Samples, n)
	copy(clientTX[leadSamples:], txData)

	jamRX := clientTX.Clone().Scale(s.gClientJam)
	jamTX, err := s.jamContribution(jamRX)
	if err != nil {
		return false, err
	}

	apRX := clientTX.Clone().Scale(s.gClientAP)
	apRX.Add(jamTX.Clone().Scale(s.gJamAP))
	s.accumulateSIR(txData, jamTX)
	t.begin(lNoise)
	s.apNoise.AddTo(apRX)
	t.end(len(apRX))
	s.totalSamples += n

	if !s.receive(apRX) {
		return false, nil
	}

	t.begin(lWifiTX)
	ackPSDU := wifi.AppendFCS(make([]byte, mac.AckBytes-4))
	ackWave, err := wifi.Modulate(ackPSDU, wifi.TxConfig{Rate: mac.AckRate, ScramblerSeed: 0x11})
	t.end(len(ackWave))
	if err != nil {
		return false, err
	}
	an := leadSamples + len(ackWave) + leadSamples
	apTX := make(dsp.Samples, an)
	copy(apTX[leadSamples:], ackWave)

	jamRXack := apTX.Clone().Scale(s.gAPJam)
	jamTXack, err := s.jamContribution(jamRXack)
	if err != nil {
		return false, err
	}
	clientRX := apTX.Clone().Scale(s.gAPClient)
	clientRX.Add(jamTXack.Clone().Scale(s.gJamClient))
	t.begin(lNoise)
	s.clientNoise.AddTo(clientRX)
	t.end(len(clientRX))
	s.totalSamples += an

	return s.receive(clientRX), nil
}

func (s *linkSim) accumulateSIR(txData, jamTX dsp.Samples) {
	s.sigPowerAtAP = txData.Power() * s.gClientAP * s.gClientAP
	for _, v := range jamTX {
		if v != 0 {
			p := real(v)*real(v) + imag(v)*imag(v)
			s.jamPowerAcc += p * s.gJamAP * s.gJamAP
			s.jamActiveN++
		}
	}
}

func (s *linkSim) measuredSIR() float64 {
	if s.jamActiveN == 0 || s.sigPowerAtAP == 0 {
		return math.Inf(1)
	}
	jp := s.jamPowerAcc / float64(s.jamActiveN)
	return dsp.DB(s.sigPowerAtAP / jp)
}

func (s *linkSim) run() (*iperf.Result, error) {
	t := s.t
	t.begin(lMAC)
	seq := mac.NewSequencer(s.link.StartRate, s.link.Seed+7)
	t.end(0)
	res := &iperf.Result{Offered: s.link.Packets}

	payload := make([]byte, s.link.PayloadBytes)
	for pkt := 0; pkt < s.link.Packets; pkt++ {
		s.rng.Read(payload)
		header := make([]byte, mac.HeaderBytes)
		header[0] = 0x08
		header[22] = byte(pkt)
		header[23] = byte(pkt >> 8)
		mpdu := append(append([]byte{}, header...), payload...)
		t.begin(lWifiTX)
		psdu := wifi.AppendFCS(mpdu)
		t.end(0)

		var xerr error
		t.begin(lMAC)
		ok, err := seq.SendMSDU(s.link.PayloadBytes, func(att mac.TxAttempt) bool {
			got, e := s.exchange(att, psdu)
			if e != nil {
				xerr = e
			}
			return got
		})
		t.end(0)
		t.msdus++
		if err != nil {
			return nil, err
		}
		if xerr != nil {
			return nil, xerr
		}
		if ok {
			res.Delivered++
			t.delivered++
		}
		if s.link.LinkDropFailures > 0 &&
			seq.ConsecutiveMSDUFailures() >= s.link.LinkDropFailures {
			res.LinkDropped = true
			break
		}
	}

	res.PRR = float64(res.Delivered) / float64(res.Offered)
	res.Elapsed = seq.Elapsed()
	if res.LinkDropped {
		res.BandwidthKbps = 0
	} else if res.Elapsed > 0 {
		bits := float64(res.Delivered) * float64(s.link.PayloadBytes) * 8
		res.BandwidthKbps = bits / res.Elapsed.Seconds() / 1000
	}
	res.SIRdB = s.measuredSIR()
	res.FinalRate = seq.Rate()
	if s.totalSamples > 0 {
		res.JamAirtimeFrac = float64(s.jamTXSamples) / float64(s.totalSamples)
	}
	return res, nil
}
