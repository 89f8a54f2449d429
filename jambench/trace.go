package main

import (
	"context"
	"math"
	"math/bits"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/dsp"
	"repro/internal/flow"
	"repro/internal/radio"
)

// layer names one program layer the traced run attributes time to.
type layer int

const (
	lWifiRX layer = iota
	lWifiTX
	lResample
	lCore
	lNoise
	lImpair
	lIperf
	lMAC
	lWimax
	lChannel
	lScope
	lFlow
	lExperiments
	lPool
	lHost
	numLayers

	// lNone marks benchmark-owned work (the stream's digest sink): its time
	// is taken out of the enclosing span and lands in the "other" row.
	lNone layer = -1
)

var layerNames = [numLayers]string{
	"wifi.rx", "wifi.tx", "dsp.resample", "core", "dsp.noise", "impair",
	"iperf", "mac", "wimax", "channel", "scope", "flow", "experiments", "experiments.pool", "host",
}

// countOnly lists the layers whose calls move no sample stream, so they
// report no samples or Msps.
var countOnly = [numLayers]bool{lMAC: true, lExperiments: true, lPool: true, lHost: true}

// histogram is a log-linear latency histogram over nanoseconds with 16
// sub-buckets per power of two (≈4% resolution); recording never allocates.
type histogram struct {
	counts [64 * 16]uint32
	n      uint64
}

func (h *histogram) record(d time.Duration) {
	v := uint64(max(d, 1))
	e := bits.Len64(v) - 1
	sub := 0
	if e >= 4 {
		sub = int(v>>(e-4)) & 15
	} else {
		sub = int(v<<(4-e)) & 15
	}
	h.counts[e*16+sub]++
	h.n++
}

// quantile returns the upper edge of the bucket holding quantile q.
func (h *histogram) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			e, sub := i/16, i%16
			upper := (float64(16+sub+1) / 16) * math.Exp2(float64(e))
			return time.Duration(upper)
		}
	}
	return 0
}

// layerStats accumulates one layer's spans.
type layerStats struct {
	calls   int64
	samples int64
	self    time.Duration // span time not covered by child spans
	alloc   uint64        // heap bytes allocated in self time
	lat     histogram     // inclusive per-call durations
}

func (s *layerStats) merge(o *layerStats) {
	s.calls += o.calls
	s.samples += o.samples
	s.self += o.self
	s.alloc += o.alloc
	for i, c := range o.lat.counts {
		s.lat.counts[i] += c
	}
	s.lat.n += o.lat.n
}

// allocReader reads the cumulative heap allocation counter without stopping
// the world. Each goroutine that records spans owns one.
type allocReader []metrics.Sample

func newAllocReader() allocReader {
	return allocReader{{Name: "/gc/heap/allocs:bytes"}}
}

func (r allocReader) read() uint64 {
	metrics.Read(r)
	return r[0].Value.Uint64()
}

type frame struct {
	l      layer
	start  time.Time
	alloc0 uint64
	childT time.Duration
	childA uint64
}

// tracer records nested spans around calls into the program's layers from
// one goroutine. Each span's self time and self allocation (its own minus
// its children's) go to its layer, and the goroutine's pprof label names
// the innermost open layer so the CPU profile splits the same way.
type tracer struct {
	stack  []frame
	layers [numLayers]layerStats
	labels [numLayers]context.Context
	base   context.Context
	allocs allocReader

	// items holds the inclusive duration of every experiments.pool item
	// span, grouped by sweep (one group per pooled entry-point call).
	items [][]time.Duration

	program    time.Duration // time inside host Program* calls
	triggers   uint64        // jam triggers summed over every traced radio
	jamSamples uint64        // jamming samples transmitted
	rxFrames   int64         // wifi.Demodulate calls
	fcsOK      int64         // received frames whose FCS checked
	msdus      int64         // mac.SendMSDU calls
	attempts   int64         // data+ACK exchanges across those calls
	delivered  int64         // MSDUs delivered
}

func newTracer() *tracer {
	t := &tracer{base: context.Background(), allocs: newAllocReader()}
	for l := range t.labels {
		t.labels[l] = pprof.WithLabels(t.base, pprof.Labels("layer", layerNames[l]))
	}
	return t
}

// begin opens a span of layer l.
func (t *tracer) begin(l layer) {
	a := t.allocs.read()
	t.stack = append(t.stack, frame{l: l, start: time.Now(), alloc0: a})
	pprof.SetGoroutineLabels(t.labels[l])
}

// end closes the innermost span, crediting it with samples of work.
func (t *tracer) end(samples int) time.Duration {
	now := time.Now()
	a := t.allocs.read()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(f.start)
	da := a - f.alloc0
	st := &t.layers[f.l]
	st.calls++
	st.samples += int64(samples)
	st.self += d - f.childT
	st.alloc += da - f.childA
	st.lat.record(d)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childT += d
		t.stack[n-1].childA += da
		pprof.SetGoroutineLabels(t.labels[t.stack[n-1].l])
	} else {
		pprof.SetGoroutineLabels(t.base)
	}
	return d
}

// newSweep starts a group of pool items (one pooled entry-point call).
func (t *tracer) newSweep() { t.items = append(t.items, nil) }

// endItem closes an experiments.pool item span.
func (t *tracer) endItem() {
	d := t.end(0)
	g := len(t.items) - 1
	t.items[g] = append(t.items[g], d)
}

// addRadio credits a finished radio's jamming counters.
func (t *tracer) addRadio(r *radio.N210) {
	st := r.Core().Stats()
	t.triggers += st.JamTriggers
	t.jamSamples += st.JamSamples
}

// process runs rx through the DDC resampler and then the native-rate radio,
// exactly as radio.N210.Process does for a radio with a source rate set,
// but as two spans so the resampler and the core are timed apart.
func (t *tracer) process(r *radio.N210, ddc *dsp.Resampler, rx dsp.Samples) (dsp.Samples, error) {
	t.begin(lResample)
	in := ddc.Process(rx)
	t.end(len(rx))
	t.begin(lCore)
	out := make(dsp.Samples, len(in))
	err := r.ProcessInto(in, out)
	t.end(len(in))
	return out, err
}

// timedBlock wraps a flowgraph stage and times every Work call. The
// pipelined runtime drives each stage from its own goroutine, so each
// wrapper keeps its own statistics and allocation reader; they are merged
// after the run returns.
type timedBlock struct {
	flow.Block
	l      layer
	t      *tracer
	st     layerStats
	allocs allocReader
}

func (t *tracer) wrap(b flow.Block, l layer) *timedBlock {
	return &timedBlock{Block: b, l: l, t: t, allocs: newAllocReader()}
}

// Work implements flow.Block.
func (b *timedBlock) Work(in, out []dsp.Samples) error {
	n := 0
	if len(out) > 0 {
		n = len(out[0])
	} else if len(in) > 0 {
		n = len(in[0])
	}
	if b.l != lNone {
		pprof.SetGoroutineLabels(b.t.labels[b.l])
	}
	a := b.allocs.read()
	start := time.Now()
	err := b.Block.Work(in, out)
	d := time.Since(start)
	b.st.alloc += b.allocs.read() - a
	b.st.calls++
	b.st.samples += int64(n)
	b.st.self += d
	b.st.lat.record(d)
	pprof.SetGoroutineLabels(b.t.labels[lFlow])
	return err
}

// absorbStages folds finished stage wrappers into the open flow span: their
// busy time and allocation become the span's children, and each stage's
// statistics go to its own layer.
func (t *tracer) absorbStages(stages []*timedBlock) {
	top := &t.stack[len(t.stack)-1]
	for _, s := range stages {
		top.childT += s.st.self
		top.childA += s.st.alloc
		if s.l != lNone {
			t.layers[s.l].merge(&s.st)
		}
	}
}
