// Package flow is a GNU-Radio-style flowgraph engine for the host-side
// applications of §2.5: the paper's control backend is a GNU Radio Companion
// flowgraph, and this package provides the same composition model in Go —
// blocks with typed sample ports, connected into a directed acyclic graph
// and executed in streaming chunks.
//
// Blocks process complex baseband in fixed-size work calls over buffers the
// runtime owns and reuses, so a steady-state run allocates nothing. Two
// schedulers execute the same graph:
//
//   - Graph.Run is the synchronous reference: one goroutine walks the blocks
//     in topological order, chunk by chunk, over preallocated per-edge
//     buffers. It is the bit-exactness anchor, the same role
//     xcorr.Reference plays for the popcount kernel.
//   - Graph.RunPipelined is the streaming pipeline runtime: one goroutine
//     per block, bounded single-producer/single-consumer ring buffers of
//     sample chunks on every edge, backpressure when a downstream ring is
//     full, and clean EOF/error/cancellation propagation. Its sink output is
//     bit-for-bit identical to Run at every chunk size and worker width —
//     the differential suite asserts exactly that.
package flow

import (
	"fmt"
	"sort"

	"repro/internal/dsp"
)

// Block is one processing stage. Work consumes one chunk per input port and
// produces one chunk per output port, all of the same length (the scheduling
// quantum, or the shorter final chunk of a run).
type Block interface {
	// Name identifies the block instance in errors and listings.
	Name() string
	// Inputs and Outputs give the port counts.
	Inputs() int
	Outputs() int
	// Work processes one chunk. in has Inputs() buffers and out has
	// Outputs() buffers, all of equal length n ≥ 1; the runtime owns every
	// buffer and reuses it across calls. Blocks must treat in as read-only
	// (several readers may share one upstream buffer) and must fully
	// overwrite each out buffer — out contents are whatever the previous
	// chunk left there. A block with no inputs is a source and derives n
	// from len(out[0]); a block with no outputs is a sink.
	Work(in, out []dsp.Samples) error
}

// port addresses one endpoint of a connection.
type port struct {
	block int
	idx   int
}

// edge is a directed connection between two ports.
type edge struct {
	from, to port
}

// Graph is a flowgraph under construction and execution. The zero value is
// an empty graph ready for Add/Connect.
type Graph struct {
	blocks []Block
	edges  []edge
	// chunk is the scheduling quantum in samples.
	chunk int
	// plan caches the validated wiring and the synchronous scheduler's
	// buffers; Add and Connect invalidate it.
	plan *plan
}

// NewGraph returns an empty graph with the given chunk size (samples per
// work call; 4096 when ≤0).
func NewGraph(chunk int) *Graph {
	if chunk <= 0 {
		chunk = 4096
	}
	return &Graph{chunk: chunk}
}

// Add registers a block and returns its handle (index).
func (g *Graph) Add(b Block) int {
	g.blocks = append(g.blocks, b)
	g.plan = nil
	return len(g.blocks) - 1
}

// Connect wires output port srcPort of block src into input port dstPort
// of block dst. One output may feed any number of inputs; each input is fed
// by exactly one output.
func (g *Graph) Connect(src, srcPort, dst, dstPort int) error {
	if src < 0 || src >= len(g.blocks) || dst < 0 || dst >= len(g.blocks) {
		return fmt.Errorf("flow: connect references unknown block (%d→%d)", src, dst)
	}
	if srcPort < 0 || srcPort >= g.blocks[src].Outputs() {
		return fmt.Errorf("flow: %s has no output port %d", g.blocks[src].Name(), srcPort)
	}
	if dstPort < 0 || dstPort >= g.blocks[dst].Inputs() {
		return fmt.Errorf("flow: %s has no input port %d", g.blocks[dst].Name(), dstPort)
	}
	for _, e := range g.edges {
		if e.to == (port{dst, dstPort}) {
			return fmt.Errorf("flow: input %s:%d already connected", g.blocks[dst].Name(), dstPort)
		}
	}
	g.edges = append(g.edges, edge{port{src, srcPort}, port{dst, dstPort}})
	g.plan = nil
	return nil
}

// plan is the validated, precomputed wiring of a graph: the topological
// order, one shared buffer per (block, output port), and for every block the
// resolved input/output buffer lists — so the synchronous scheduler's chunk
// loop touches no maps, scans no edge lists, and allocates nothing.
type plan struct {
	order []int
	// inEdge[b][p] is the index of the edge feeding block b's input p.
	inEdge [][]int
	// outEdges[b][p] lists the edges leaving block b's output p, in
	// connection order.
	outEdges [][][]int

	// Synchronous-scheduler workspaces: bufs has one full-chunk buffer per
	// (block, output port); ins and outs are the per-block Work arguments,
	// re-sliced to the chunk length by setLen. Edges sharing a source port
	// share the source's buffer.
	bufs  []dsp.Samples
	ins   [][]dsp.Samples
	outs  [][]dsp.Samples
	lastN int
}

// validate checks that every input port is fed and the graph is acyclic,
// returning the precomputed wiring (without scheduler workspaces).
func (g *Graph) validate() (*plan, error) {
	nb := len(g.blocks)
	indeg := make([]int, nb)
	adj := make([][]int, nb)
	p := &plan{
		inEdge:   make([][]int, nb),
		outEdges: make([][][]int, nb),
	}
	for bi, b := range g.blocks {
		p.inEdge[bi] = make([]int, b.Inputs())
		for i := range p.inEdge[bi] {
			p.inEdge[bi][i] = -1
		}
		p.outEdges[bi] = make([][]int, b.Outputs())
	}
	for ei, e := range g.edges {
		adj[e.from.block] = append(adj[e.from.block], e.to.block)
		indeg[e.to.block]++
		p.inEdge[e.to.block][e.to.idx] = ei
		p.outEdges[e.from.block][e.from.idx] = append(p.outEdges[e.from.block][e.from.idx], ei)
	}
	for bi, b := range g.blocks {
		for pi := 0; pi < b.Inputs(); pi++ {
			if p.inEdge[bi][pi] < 0 {
				return nil, fmt.Errorf("flow: input %s:%d unconnected", b.Name(), pi)
			}
		}
	}
	// Kahn's algorithm; deterministic order via sorted ready set.
	ready := []int{}
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		n := ready[0]
		ready = ready[1:]
		p.order = append(p.order, n)
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(p.order) != nb {
		return nil, fmt.Errorf("flow: graph has a cycle")
	}
	return p, nil
}

// ensurePlan validates the graph (or reuses the cached plan) and equips it
// with the synchronous scheduler's buffers.
func (g *Graph) ensurePlan() (*plan, error) {
	if g.plan != nil {
		return g.plan, nil
	}
	p, err := g.validate()
	if err != nil {
		return nil, err
	}
	// One buffer per (block, output port); bufID[b][p] indexes bufs.
	bufID := make([][]int, len(g.blocks))
	for bi, b := range g.blocks {
		bufID[bi] = make([]int, b.Outputs())
		for pi := range bufID[bi] {
			bufID[bi][pi] = len(p.bufs)
			p.bufs = append(p.bufs, make(dsp.Samples, g.chunk))
		}
	}
	p.ins = make([][]dsp.Samples, len(g.blocks))
	p.outs = make([][]dsp.Samples, len(g.blocks))
	for bi, b := range g.blocks {
		p.ins[bi] = make([]dsp.Samples, b.Inputs())
		p.outs[bi] = make([]dsp.Samples, b.Outputs())
	}
	p.setLen(g, g.chunk)
	g.plan = p
	return p, nil
}

// setLen re-slices every block's input and output buffers to chunk length n.
// It is a no-op when n matches the previous chunk, so within a run it runs
// twice: once up front and once for the shorter final chunk (if any).
func (p *plan) setLen(g *Graph, n int) {
	if n == p.lastN {
		return
	}
	bufAt := 0
	for bi, b := range g.blocks {
		for pi := 0; pi < b.Outputs(); pi++ {
			p.outs[bi][pi] = p.bufs[bufAt][:n]
			bufAt++
		}
	}
	for bi, b := range g.blocks {
		for pi := 0; pi < b.Inputs(); pi++ {
			e := g.edges[p.inEdge[bi][pi]]
			p.ins[bi][pi] = p.outs[e.from.block][e.from.idx]
		}
	}
	p.lastN = n
}

// Run executes the graph synchronously for totalSamples per source, in
// chunks: the retained reference scheduler. It stops early with an error
// from any block. Steady state allocates nothing — the wiring and buffers
// are computed once per graph and reused across chunks and runs.
func (g *Graph) Run(totalSamples int) error {
	if totalSamples <= 0 {
		return fmt.Errorf("flow: totalSamples must be positive")
	}
	p, err := g.ensurePlan()
	if err != nil {
		return err
	}
	for produced := 0; produced < totalSamples; {
		n := g.chunk
		if rem := totalSamples - produced; rem < n {
			n = rem
		}
		p.setLen(g, n)
		for _, bi := range p.order {
			b := g.blocks[bi]
			if err := b.Work(p.ins[bi], p.outs[bi]); err != nil {
				return fmt.Errorf("flow: block %s: %w", b.Name(), err)
			}
		}
		produced += n
	}
	return nil
}
