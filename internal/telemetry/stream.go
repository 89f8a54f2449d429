package telemetry

// Live streaming: the Broadcaster serves a Server-Sent Events endpoint
// (`/stream`, next to `/metrics`) that pushes per-cell counter/histogram/
// alert rollups at a fixed cadence, so a long run has a live view without
// scrape polling. Each tick emits one `rollup` event per cell with a JSON
// body.

// HistRollup is one histogram's headline figures inside a rollup.
type HistRollup struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	Max   uint64 `json:"max"`
}

// Rollup is one cell's periodic digest: the counter block, per-histogram
// headline figures, and the observability-plane tallies (anomaly alerts,
// flight dumps, journal drops, completed engagements).
type Rollup struct {
	// Seq is the tick number, shared by every cell emitted in one tick.
	Seq uint64 `json:"seq"`
	// Cell names the datapath cell the rollup describes.
	Cell string `json:"cell"`
	// Counters is the cell's counter block.
	Counters CounterSnapshot `json:"counters"`
	// Histograms carries the headline figures per latency histogram.
	Histograms []HistRollup `json:"histograms"`
	// Alerts and Dumps count anomaly alerts raised and flight-recorder
	// dumps captured so far; Dropped and Engagements mirror the journal.
	Alerts      uint64 `json:"alerts"`
	Dumps       uint64 `json:"dumps"`
	Dropped     uint64 `json:"dropped"`
	Engagements uint64 `json:"engagements"`
}

// RollupFrom digests a live recorder into one cell's rollup.
func RollupFrom(cell string, seq uint64, l *Live) Rollup {
	s := l.Snapshot()
	r := Rollup{
		Seq:         seq,
		Cell:        cell,
		Counters:    s.Counters,
		Alerts:      l.EventCount(EvAnomalyAlert),
		Dumps:       l.EventCount(EvFlightDump),
		Dropped:     s.Dropped,
		Engagements: s.Engagements,
	}
	for _, h := range s.Histograms {
		r.Histograms = append(r.Histograms, HistRollup{
			Name: h.Name, Count: h.Count, P50: h.P50, P99: h.P99, Max: h.Max,
		})
	}
	return r
}

// RollupSource produces the per-cell rollups for one stream tick.
type RollupSource func(seq uint64) []Rollup
