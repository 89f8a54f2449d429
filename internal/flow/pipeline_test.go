package flow

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/host"
	"repro/internal/radio"
)

// radioForTest builds a started N210 with the short-preamble correlator and
// energy detector programmed, at the native rate (no DDC).
func radioForTest(t *testing.T) *radio.N210 {
	t.Helper()
	r := radio.New()
	h := host.New(r.Core())
	if _, err := h.ProgramCorrelator(host.WiFiShortTemplate(), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ProgramEnergy(10, 0); err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r
}

// leakCheck snapshots the goroutine count and returns an assertion that the
// pipeline left none behind. Shutdown is asynchronous only up to stage
// unwind, so the check retries briefly before failing.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
	}
}

// errorAfter fails its Work call once `after` chunks have passed through.
type errorAfter struct {
	after int
	seen  int
}

func (errorAfter) Name() string { return "error-after" }
func (errorAfter) Inputs() int  { return 1 }
func (errorAfter) Outputs() int { return 1 }
func (e *errorAfter) Work(in, out []dsp.Samples) error {
	if e.seen >= e.after {
		return errors.New("injected mid-stream failure")
	}
	e.seen++
	copy(out[0], in[0])
	return nil
}

// slowSink delays every chunk, making every upstream ring back up.
type slowSink struct {
	delay time.Duration
	got   int
}

func (slowSink) Name() string { return "slow-sink" }
func (slowSink) Inputs() int  { return 1 }
func (slowSink) Outputs() int { return 0 }
func (s *slowSink) Work(in, _ []dsp.Samples) error {
	time.Sleep(s.delay)
	s.got += len(in[0])
	return nil
}

// signalFirst closes its channel on the first chunk, proving the stream is
// live before the test cancels it.
type signalFirst struct {
	started chan struct{}
	fired   bool
}

func (signalFirst) Name() string { return "signal-first" }
func (signalFirst) Inputs() int  { return 1 }
func (signalFirst) Outputs() int { return 0 }
func (b *signalFirst) Work(in, _ []dsp.Samples) error {
	if !b.fired {
		b.fired = true
		close(b.started)
	}
	return nil
}

func TestPipelineMidStreamErrorPropagates(t *testing.T) {
	check := leakCheck(t)
	g := NewGraph(64)
	src := g.Add(&NoiseSourceBlock{Src: dsp.NewNoiseSource(1, 1)})
	bad := g.Add(&errorAfter{after: 3})
	sink := g.Add(&VectorSink{})
	if err := g.Connect(src, 0, bad, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(bad, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	// Far more samples than the failure point: upstream must be unwound
	// mid-stream, not run to completion.
	_, err := g.RunPipelined(1<<20, PipelineOptions{Depth: 2})
	if err == nil || !strings.Contains(err.Error(), "error-after") ||
		!strings.Contains(err.Error(), "injected mid-stream failure") {
		t.Fatalf("want wrapped block error, got %v", err)
	}
	check()
}

func TestPipelineSyncSchedulerSameError(t *testing.T) {
	g := NewGraph(64)
	src := g.Add(&NoiseSourceBlock{Src: dsp.NewNoiseSource(1, 1)})
	bad := g.Add(&errorAfter{after: 0})
	sink := g.Add(&VectorSink{})
	_ = g.Connect(src, 0, bad, 0)
	_ = g.Connect(bad, 0, sink, 0)
	err := g.Run(256)
	if err == nil || !strings.Contains(err.Error(), "error-after") {
		t.Fatalf("sync scheduler: want wrapped block error, got %v", err)
	}
}

func TestPipelineEarlyCancel(t *testing.T) {
	check := leakCheck(t)
	g := NewGraph(16)
	src := g.Add(&NoiseSourceBlock{Src: dsp.NewNoiseSource(1, 1)})
	blocked := &signalFirst{started: make(chan struct{})}
	sink := g.Add(blocked)
	if err := g.Connect(src, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocked.started // the pipeline is demonstrably mid-stream
		cancel()
	}()
	_, err := g.RunPipelinedContext(ctx, 1<<30, PipelineOptions{Depth: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	check()
}

func TestPipelineSlowSinkBackpressure(t *testing.T) {
	check := leakCheck(t)
	g := NewGraph(256)
	src := g.Add(&NoiseSourceBlock{Src: dsp.NewNoiseSource(1, 9)})
	gain := g.Add(Gain{G: 2})
	slow := &slowSink{delay: 500 * time.Microsecond}
	sk := g.Add(slow)
	if err := g.Connect(src, 0, gain, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(gain, 0, sk, 0); err != nil {
		t.Fatal(err)
	}
	const total = 256 * 40
	stats, err := g.RunPipelined(total, PipelineOptions{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if slow.got != total {
		t.Fatalf("sink got %d samples, want %d", slow.got, total)
	}
	// The fast producer side must have hit the full ring and stalled; the
	// ring may never exceed its depth.
	producer, _ := stats.TotalStalls()
	if producer == 0 {
		t.Fatalf("no producer stalls recorded against a slow sink: %+v", stats.Edges)
	}
	for _, e := range stats.Edges {
		if e.Queue.OccupancyHW > 2 {
			t.Fatalf("edge %s→%s occupancy high-water %d exceeds depth 2",
				e.From, e.To, e.Queue.OccupancyHW)
		}
	}
	check()
}

// TestPipelineRepeatedRunsReuseGraph pins that one Graph can run many times
// (plan and ring wiring are rebuilt or reused correctly) and that a
// completed run leaves no goroutines regardless of outcome.
func TestPipelineRepeatedRunsReuseGraph(t *testing.T) {
	check := leakCheck(t)
	g := NewGraph(32)
	src := g.Add(&VectorSource{Data: dsp.Samples{1, 2}, Repeat: true})
	sink := &VectorSink{}
	sk := g.Add(sink)
	if err := g.Connect(src, 0, sk, 0); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		sink.Data = sink.Data[:0]
		if _, err := g.RunPipelined(100, PipelineOptions{}); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(sink.Data) != 100 {
			t.Fatalf("run %d: sink has %d samples", run, len(sink.Data))
		}
	}
	check()
}

// TestPipelineManyShutdownPaths hammers start/cancel timing to catch
// shutdown races: each iteration cancels at a slightly different point in
// the stream. Run under -race this is the shutdown-protocol proof.
func TestPipelineManyShutdownPaths(t *testing.T) {
	check := leakCheck(t)
	for i := 0; i < 30; i++ {
		g := NewGraph(8)
		src := g.Add(&NoiseSourceBlock{Src: dsp.NewNoiseSource(1, int64(i))})
		gain := g.Add(Gain{G: complex(0, 1)})
		sink := g.Add(&VectorSink{})
		_ = g.Connect(src, 0, gain, 0)
		_ = g.Connect(gain, 0, sink, 0)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, err := g.RunPipelinedContext(ctx, 1<<20, PipelineOptions{Depth: 1, Workers: i%3 + 1})
			if err == nil {
				t.Errorf("iteration %d: cancelled run returned nil error", i)
			}
		}()
		if i%2 == 0 {
			runtime.Gosched()
		}
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: pipeline did not unwind after cancel", i)
		}
	}
	check()
}

// TestPipelineStatsEdges verifies the stats naming and chunk accounting on a
// clean run.
func TestPipelineStatsEdges(t *testing.T) {
	g := NewGraph(10)
	src := g.Add(&VectorSource{Label: "s", Data: dsp.Samples{1}, Repeat: true})
	sink := g.Add(&VectorSink{Label: "k"})
	if err := g.Connect(src, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := g.RunPipelined(25, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Edges) != 1 {
		t.Fatalf("want 1 edge stat, got %d", len(stats.Edges))
	}
	e := stats.Edges[0]
	if e.From != "s:0" || e.To != "k:0" {
		t.Fatalf("edge named %s→%s", e.From, e.To)
	}
	if e.Queue.Pushes != 3 || e.Queue.Pops != 3 { // chunks: 10+10+5
		t.Fatalf("edge carried %d/%d chunks, want 3/3", e.Queue.Pushes, e.Queue.Pops)
	}
}

// errorSourceGraph exercises the error path from a source block (no inputs).
func TestPipelineSourceError(t *testing.T) {
	check := leakCheck(t)
	g := NewGraph(16)
	src := g.Add(&NoiseSourceBlock{}) // unconfigured: Work errors
	sink := g.Add(&VectorSink{})
	if err := g.Connect(src, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	_, err := g.RunPipelined(1024, PipelineOptions{})
	if err == nil || !strings.Contains(err.Error(), "noise source not configured") {
		t.Fatalf("want source error, got %v", err)
	}
	check()
}

func TestPipelineWorkerWidthsZeroAndLarge(t *testing.T) {
	for _, workers := range []int{0, 1, 64} {
		g := NewGraph(32)
		src := g.Add(&VectorSource{Data: dsp.Samples{3}, Repeat: true})
		sink := &VectorSink{}
		sk := g.Add(sink)
		if err := g.Connect(src, 0, sk, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := g.RunPipelined(64, PipelineOptions{Workers: workers}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(sink.Data) != 64 {
			t.Fatalf("workers %d: got %d samples", workers, len(sink.Data))
		}
		for i, v := range sink.Data {
			if v != 3 {
				t.Fatalf("workers %d: sample %d = %v", workers, i, v)
			}
		}
	}
}
