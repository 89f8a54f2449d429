package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Broadcaster is the `/stream` SSE server: one goroutine pulls the
// rollup source every interval, marshals the SSE payload once, and fans it
// out to every subscriber over a bounded
// per-client queue. A subscriber that stops reading — a stalled TCP
// connection, a wedged consumer — fills its queue and is dropped and
// counted, instead of backpressuring the broadcast tick and starving the
// healthy clients.
type Broadcaster struct {
	interval time.Duration
	source   RollupSource

	mu      sync.Mutex
	clients map[*streamClient]struct{}
	seq     uint64
	stop    chan struct{}
	done    chan struct{}

	dropped atomic.Uint64
}

// streamClientQueue bounds the per-client frame queue: a client more than
// this many ticks behind is considered stalled.
const streamClientQueue = 8

type streamClient struct {
	frames chan []byte
}

// NewBroadcaster returns a broadcaster pulling the source every interval
// (1 s when interval <= 0). Call Start to begin ticking.
func NewBroadcaster(interval time.Duration, source RollupSource) *Broadcaster {
	if interval <= 0 {
		interval = time.Second
	}
	return &Broadcaster{
		interval: interval,
		source:   source,
		clients:  make(map[*streamClient]struct{}),
	}
}

// DroppedClients returns how many stalled subscribers have been dropped —
// exported as the stream_dropped_clients metric.
func (b *Broadcaster) DroppedClients() uint64 { return b.dropped.Load() }

// Start launches the broadcast loop (no-op when already running).
func (b *Broadcaster) Start() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop != nil {
		return
	}
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	go b.run(b.stop, b.done)
}

// Stop halts the loop and disconnects every subscriber.
func (b *Broadcaster) Stop() {
	b.mu.Lock()
	if b.stop == nil {
		b.mu.Unlock()
		return
	}
	stop, done := b.stop, b.done
	b.stop, b.done = nil, nil
	b.mu.Unlock()
	close(stop)
	<-done
	b.mu.Lock()
	for c := range b.clients {
		close(c.frames)
		delete(b.clients, c)
	}
	b.mu.Unlock()
}

func (b *Broadcaster) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(b.interval)
	defer t.Stop()
	b.tick()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b.tick()
		}
	}
}

// tick marshals the tick's rollups once and enqueues the frame to every
// subscriber without ever blocking: a full queue drops that subscriber.
func (b *Broadcaster) tick() {
	b.mu.Lock()
	seq := b.seq
	b.seq++
	b.mu.Unlock()

	frame := marshalFrame(b.source(seq))
	if frame == nil {
		return
	}

	b.mu.Lock()
	for c := range b.clients {
		select {
		case c.frames <- frame:
		default:
			delete(b.clients, c)
			close(c.frames)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// marshalFrame renders one tick's rollups as a single SSE frame.
func marshalFrame(rollups []Rollup) []byte {
	var frame []byte
	for _, r := range rollups {
		body, err := json.Marshal(r)
		if err != nil {
			return nil
		}
		frame = append(frame, "event: rollup\ndata: "...)
		frame = append(frame, body...)
		frame = append(frame, "\n\n"...)
	}
	return frame
}

// subscribe registers a new client. The first frame is generated
// immediately so a consumer never waits a full interval for data.
func (b *Broadcaster) subscribe() *streamClient {
	c := &streamClient{frames: make(chan []byte, streamClientQueue)}
	b.mu.Lock()
	seq := b.seq
	b.seq++
	b.clients[c] = struct{}{}
	b.mu.Unlock()
	c.frames <- marshalFrame(b.source(seq))
	return c
}

// unsubscribe removes a client that disconnected on its own.
func (b *Broadcaster) unsubscribe(c *streamClient) {
	b.mu.Lock()
	if _, ok := b.clients[c]; ok {
		delete(b.clients, c)
		close(c.frames)
	}
	b.mu.Unlock()
}

// ServeHTTP streams broadcast frames to the client until it disconnects or
// is dropped for stalling.
func (b *Broadcaster) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	c := b.subscribe()
	defer b.unsubscribe(c)
	for {
		select {
		case <-req.Context().Done():
			return
		case frame, ok := <-c.frames:
			if !ok {
				// Dropped as a slow client (or broadcaster stopped): a
				// final comment line tells a live consumer why.
				fmt.Fprint(w, ": dropped (slow client)\n\n")
				flusher.Flush()
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
