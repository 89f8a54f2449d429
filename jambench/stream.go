package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/flow"
	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/impair"
	"repro/internal/jammer"
	"repro/internal/radio"
	"repro/internal/trigger"
	"repro/internal/wifi"
)

// jammerStream pushes one unbroken 25 MSPS stream through the pipelined
// flowgraph: pre-generated WiFi frames plus noise, front-end impairments,
// the armed jammer radio, and a digest sink.
type jammerStream struct {
	seed    int64
	total   int
	chunk   int
	air     dsp.Samples // one period of the source pattern at 25 MSPS
	refHash uint64      // sink digest of the synchronous Graph.Run reference

	// The graph of the next pass, built by prepare.
	g       *flow.Graph
	r       *radio.N210
	sink    *digestSink
	workers int
	tr      *tracer
	stages  []*timedBlock
}

const (
	streamDepth      = 4
	streamFrames     = 48
	streamNoisePower = 1e-4
	streamSigPower   = 0.1
)

func newJammerStream(seed int64, sz sizes) (*jammerStream, error) {
	w := &jammerStream{seed: 1 + seedOffset(seed), total: sz.streamSamples, chunk: sz.streamChunk}
	air, err := streamPattern(w.seed)
	if err != nil {
		return nil, err
	}
	w.air = air
	if err := w.build(nil); err != nil {
		return nil, err
	}
	return w, nil
}

// streamPattern modulates frames at every 802.11g rate and a spread of
// sizes, separated by idle gaps, at 20 MSPS, and resamples the result to
// the jammer's native 25 MSPS once, so the stream itself carries no
// resampler. Rates, sizes and gaps follow fixed cycles so every seed gives
// the jammer the same amount of work; the seed draws the payloads and
// scrambler states (and, in the graph, the noise and front end).
func streamPattern(seed int64) (dsp.Samples, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1500, 100, 800, 1200, 300}
	gaps := []int{200, 1900, 700, 1300}
	var src dsp.Samples
	for f := 0; f < streamFrames; f++ {
		src = append(src, make(dsp.Samples, gaps[f%len(gaps)])...)
		psdu := make([]byte, sizes[f%len(sizes)])
		rng.Read(psdu)
		wave, err := wifi.Modulate(wifi.AppendFCS(psdu), wifi.TxConfig{
			Rate:          wifi.AllRates[f%len(wifi.AllRates)],
			ScramblerSeed: uint8(rng.Intn(127) + 1),
		})
		if err != nil {
			return nil, err
		}
		src = append(src, wave.ScaleToPower(streamSigPower)...)
	}
	return newDDC(wifi.SampleRate).Process(src), nil
}

// build assembles a fresh graph for one pass; with a tracer every stage is
// wrapped in a timing block.
func (w *jammerStream) build(tr *tracer) error {
	r := radio.New()
	h := host.New(r.Core())
	if _, err := h.ProgramCorrelatorFA(host.WiFiShortTemplate(), 0.1); err != nil {
		return err
	}
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		return err
	}
	if _, err := h.ProgramTrigger(core.FusionAny,
		[]trigger.Event{trigger.EventXCorr, trigger.EventEnergyHigh}, 0); err != nil {
		return err
	}
	if _, err := h.ProgramJammer(host.Personality{
		Waveform: jammer.WaveformWGN, Uptime: 10 * time.Microsecond, Gain: 1,
	}); err != nil {
		return err
	}
	r.Start()

	w.r, w.sink, w.tr, w.stages = r, &digestSink{}, tr, nil
	g := flow.NewGraph(w.chunk)
	add := func(b flow.Block, l layer) int {
		if tr != nil && l != lFlow {
			tb := tr.wrap(b, l)
			w.stages = append(w.stages, tb)
			b = tb
		}
		return g.Add(b)
	}
	src := add(&flow.VectorSource{Label: "air", Data: w.air, Repeat: true}, lFlow)
	noise := add(&flow.NoiseSourceBlock{Src: dsp.NewNoiseSource(streamNoisePower, w.seed+1)}, lNoise)
	sum := add(flow.Adder{}, lFlow)
	front := add(flow.ImpairBlock{Chain: impair.New(impair.TypicalUSRP(2.484e9, fpga.SampleRateHz, w.seed+2))}, lImpair)
	jam := add(flow.RadioBlock{Radio: r}, lCore)
	sink := add(w.sink, lNone)
	for _, e := range [][4]int{
		{src, 0, sum, 0}, {noise, 0, sum, 1}, {sum, 0, front, 0},
		{front, 0, jam, 0}, {jam, 0, sink, 0},
	} {
		if err := g.Connect(e[0], e[1], e[2], e[3]); err != nil {
			return err
		}
	}
	w.g = g
	return nil
}

// reference runs the synchronous scheduler once and records its digest.
func (w *jammerStream) reference() error {
	if err := w.build(nil); err != nil {
		return err
	}
	if err := w.g.Run(w.total); err != nil {
		return fmt.Errorf("sync reference: %w", err)
	}
	w.refHash = w.sink.h
	return nil
}

func (w *jammerStream) prepare(width int, tr *tracer) error {
	w.workers = 0
	if width == 1 {
		w.workers = 1
	}
	return w.build(tr)
}

func (w *jammerStream) run() (result, error) {
	t := w.tr
	if t != nil {
		t.begin(lFlow)
	}
	stats, err := w.g.RunPipelined(w.total, flow.PipelineOptions{Depth: streamDepth, Workers: w.workers})
	if t != nil {
		t.absorbStages(w.stages)
		t.end(w.total)
		t.addRadio(w.r)
	}
	if err != nil {
		return nil, err
	}
	st := w.r.Core().Stats()
	res := &streamResult{w: w, hash: w.sink.h, n: w.sink.n, nonzero: w.sink.nonzero,
		triggers: st.JamTriggers, jamSamples: st.JamSamples}
	res.producer, res.consumer = stats.TotalStalls()
	for _, e := range stats.Edges {
		res.queueHW = max(res.queueHW, e.Queue.OccupancyHW)
	}
	return res, nil
}

type streamResult struct {
	w                    *jammerStream
	hash                 uint64
	n, nonzero           int
	triggers, jamSamples uint64

	producer, consumer, queueHW uint64
}

func (r *streamResult) figures() figures {
	var f figures
	f.addString("sink_digest", fmt.Sprintf("%016x", r.hash))
	f.add("sink_samples", float64(r.n))
	f.add("sink_nonzero", float64(r.nonzero))
	f.add("jam_triggers", float64(r.triggers))
	f.add("jam_samples", float64(r.jamSamples))
	return f
}

// bands require the pipelined sink to equal the synchronous reference, the
// whole stream to arrive, and the jammer to fire on the frames with at most
// a 10 µs burst (250 samples) per trigger.
func (r *streamResult) bands() []check {
	return []check{
		{"matches_sync_reference", r.hash == r.w.refHash},
		{"complete", r.n == r.w.total},
		{"jams", r.triggers > 0 && r.jamSamples > 0 && r.jamSamples <= 250*r.triggers && r.nonzero > 0},
	}
}

func (r *streamResult) airSeconds() float64 {
	return float64(r.w.total) / fpga.SampleRateHz
}

// items counts the WiFi frames the stream carries.
func (r *streamResult) items() float64 {
	return float64(r.w.total) / float64(len(r.w.air)) * streamFrames
}

// digestSink folds every sample's bits into an FNV-1a style digest so the
// stream is compared exactly without being retained.
type digestSink struct {
	h          uint64
	n, nonzero int
}

func (d *digestSink) Name() string { return "digest" }
func (d *digestSink) Inputs() int  { return 1 }
func (d *digestSink) Outputs() int { return 0 }

// Work implements flow.Block.
func (d *digestSink) Work(in, _ []dsp.Samples) error {
	const prime = 1099511628211
	h := d.h
	if d.n == 0 {
		h = 14695981039346656037
	}
	for _, v := range in[0] {
		h = (h ^ math.Float64bits(real(v))) * prime
		h = (h ^ math.Float64bits(imag(v))) * prime
		if v != 0 {
			d.nonzero++
		}
	}
	d.h = h
	d.n += len(in[0])
	return nil
}
