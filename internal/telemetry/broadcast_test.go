package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testSource returns a one-cell rollup source backed by a live recorder.
func testSource(live *Live) RollupSource {
	return func(seq uint64) []Rollup {
		return []Rollup{RollupFrom("cell0", seq, live)}
	}
}

// TestBroadcasterDropsStalledClient is the slow-consumer regression test:
// a subscriber that never drains its queue must be dropped and counted
// while a healthy subscriber keeps receiving rollups — the broadcast tick
// must never block on the stalled client.
func TestBroadcasterDropsStalledClient(t *testing.T) {
	live := NewLive(256)
	b := NewBroadcaster(time.Millisecond, testSource(live))
	b.Start()
	defer b.Stop()

	// A never-reading client: subscribed, queue never drained.
	stalled := b.subscribe()

	// A healthy client drains continuously and tallies frames.
	healthy := b.subscribe()
	got := make(chan int)
	go func() {
		n := 0
		for range healthy.frames {
			n++
		}
		got <- n
	}()

	// The stalled client's queue (streamClientQueue frames, one already
	// holding the subscribe-time frame) fills within a few ticks and the
	// broadcaster must cut it loose.
	deadline := time.After(5 * time.Second)
	for b.DroppedClients() == 0 {
		select {
		case <-deadline:
			t.Fatal("stalled client never dropped")
		case <-time.After(time.Millisecond):
		}
	}
	if got := b.DroppedClients(); got != 1 {
		t.Fatalf("DroppedClients = %d, want 1", got)
	}
	// The dropped client's channel is closed.
	drained := 0
	for range stalled.frames {
		drained++
	}
	if drained > streamClientQueue {
		t.Fatalf("stalled client held %d frames, queue bound is %d", drained, streamClientQueue)
	}

	// The healthy client is still subscribed and keeps receiving.
	b.Stop()
	if n := <-got; n < 2 {
		t.Fatalf("healthy client got %d frames, want >= 2", n)
	}
	if got := b.DroppedClients(); got != 1 {
		t.Fatalf("healthy client counted as dropped: DroppedClients = %d", got)
	}
}

// TestBroadcasterServeHTTP checks the HTTP surface end to end: SSE
// headers, rollup framing, advancing sequence numbers.
func TestBroadcasterServeHTTP(t *testing.T) {
	live := NewLive(256)
	c := &Counters{}
	live.BindCounters(c)
	c.Samples.Store(777)

	b := NewBroadcaster(2*time.Millisecond, testSource(live))
	b.Start()
	defer b.Stop()

	srv := httptest.NewServer(b)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var rollups []Rollup
	for len(rollups) < 3 && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var r Rollup
		if err := json.Unmarshal([]byte(line[len("data: "):]), &r); err != nil {
			t.Fatalf("bad rollup %q: %v", line, err)
		}
		rollups = append(rollups, r)
	}
	if len(rollups) < 3 {
		t.Fatalf("stream ended after %d rollups: %v", len(rollups), sc.Err())
	}
	for i, r := range rollups {
		if r.Cell != "cell0" || r.Counters.Samples != 777 {
			t.Errorf("rollup %d = %+v", i, r)
		}
	}
	if rollups[0].Seq == rollups[2].Seq {
		t.Errorf("seq did not advance: %d .. %d", rollups[0].Seq, rollups[2].Seq)
	}
}

// TestBroadcasterPushesRollups is the host-side consumer check of the
// rollup content: an SSE client must receive several `rollup` events per
// cell carrying the counter, alert/dump and jam-burst histogram figures,
// with the sequence number advancing across ticks.
func TestBroadcasterPushesRollups(t *testing.T) {
	live := NewLive(256)
	c := &Counters{}
	live.BindCounters(c)
	c.Samples.Store(12345)
	c.JamTriggers.Store(3)
	live.Event(EvJamRFOn, 100, 0, 1)
	live.Event(EvJamRFOff, 1100, 0, 1)
	live.Event(EvAnomalyAlert, 1200, 0, 0)
	live.Event(EvFlightDump, 1300, 0, 0)

	b := NewBroadcaster(5*time.Millisecond, func(seq uint64) []Rollup {
		// Two cells per tick: the live cell and a synthetic second cell, so
		// the per-cell fan-out is exercised.
		return []Rollup{
			RollupFrom("cell0", seq, live),
			{Seq: seq, Cell: "cell1"},
		}
	})
	b.Start()
	defer b.Stop()
	srv := httptest.NewServer(b)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Consume at least 3 updates of cell0 (and the interleaved cell1 rows).
	sc := bufio.NewScanner(resp.Body)
	var cell0 []Rollup
	var sawEventLine bool
	for len(cell0) < 3 && sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: rollup":
			sawEventLine = true
		case strings.HasPrefix(line, "data: "):
			var r Rollup
			if err := json.Unmarshal([]byte(line[len("data: "):]), &r); err != nil {
				t.Fatalf("bad rollup body %q: %v", line, err)
			}
			if r.Cell == "cell0" {
				cell0 = append(cell0, r)
			}
		}
	}
	if len(cell0) < 3 {
		t.Fatalf("stream ended after %d rollups: %v", len(cell0), sc.Err())
	}
	if !sawEventLine {
		t.Error("no 'event: rollup' framing line seen")
	}

	for i, r := range cell0 {
		if r.Counters.Samples != 12345 || r.Counters.JamTriggers != 3 {
			t.Errorf("rollup %d counters = %+v", i, r.Counters)
		}
		if r.Alerts != 1 || r.Dumps != 1 {
			t.Errorf("rollup %d alerts/dumps = %d/%d, want 1/1", i, r.Alerts, r.Dumps)
		}
		found := false
		for _, h := range r.Histograms {
			if h.Name == HistJamBurst && h.Count == 1 && h.Max >= 1000 {
				found = true
			}
		}
		if !found {
			t.Errorf("rollup %d lacks the jam-burst histogram figures", i)
		}
	}
	if cell0[0].Seq == cell0[2].Seq {
		t.Errorf("seq did not advance: %d .. %d", cell0[0].Seq, cell0[2].Seq)
	}
}
