package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEndDefs are the untraced run's metrics.
var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"realtime_factor", "x", "higher"},
	{"alloc_bytes_per_item", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerDefs are the traced run's metrics: the generic per-layer set for
// every layer, then each layer's extras.
func perLayerDefs() []metricDef {
	var d []metricDef
	for l := layer(0); l < numLayers; l++ {
		n := layerNames[l]
		d = append(d, metricDef{n + ".calls", "count", "lower"})
		if !countOnly[l] {
			d = append(d, metricDef{n + ".samples", "count", "lower"})
		}
		d = append(d, metricDef{n + ".busy_s", "s", "lower"})
		if !countOnly[l] {
			d = append(d, metricDef{n + ".msps", "Msps", "higher"})
		}
		d = append(d,
			metricDef{n + ".share", "frac", "lower"},
			metricDef{n + ".alloc_bytes_per_call", "B", "lower"},
			metricDef{n + ".call_p99_us", "us", "lower"})
	}
	return append(d,
		metricDef{"wifi.rx.fcs_ok_frac", "frac", "higher"},
		metricDef{"wifi.rx.viterbi_share", "frac", "lower"},
		metricDef{"dsp.resample.cpu_over_core", "x", "lower"},
		metricDef{"core.triggers", "count", "higher"},
		metricDef{"core.jam_sample_frac", "frac", "lower"},
		metricDef{"mac.attempts_per_datagram", "count", "lower"},
		metricDef{"mac.delivered_frac", "frac", "higher"},
		metricDef{"flow.producer_stalls", "count", "lower"},
		metricDef{"flow.consumer_stalls", "count", "lower"},
		metricDef{"flow.queue_hw", "chunks", "lower"},
		metricDef{"experiments.pool.efficiency", "frac", "higher"},
		metricDef{"experiments.pool.tail_s", "s", "lower"},
		metricDef{"host.program_s", "s", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.alloc_bytes", "B", "lower"},
		metricDef{"other.share", "frac", "lower"},
		metricDef{"trace.overhead", "x", "lower"},
	)
}

// runtimeCounters are the Go runtime's cumulative counters.
type runtimeCounters struct {
	alloc, gcCycles uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	return runtimeCounters{
		alloc:    runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
		totalCPU: runtimeSamples[3].Value.Float64(),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shareRow is one line of the stage-share table.
type shareRow struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// tracedRun reports per-layer metrics. Untraced passes through the entry
// point come first: a warm-up that fixes the reference outputs, one at
// pool width nproc (runtime and flowgraph counters, pool wall) and one at
// width 1 (the tracing-overhead base). Traced replica passes at width 1
// fill the rest of the window under a CPU profile; each must reproduce the
// reference outputs exactly.
func tracedRun(inst instance, o options, width int, want map[string]string, log io.Writer) (*output, map[string]any, error) {
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var tl tally
	warm, err := measurePass(inst, width, nil)
	if err != nil {
		return nil, nil, err
	}
	tl.add(warm.res, want)
	ref := warm.res.figures()
	var wide, narrow passStats
	for i, p := range []*passStats{&wide, &narrow} {
		if *p, err = measurePass(inst, []int{width, 1}[i], nil); err != nil {
			return nil, nil, err
		}
		tl.add(p.res, want)
		if err := diffFigures(ref, p.res.figures()); err != nil {
			tl.fail("untraced pass differs: " + err.Error())
		}
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	var walls []float64
	for len(walls) == 0 || time.Now().Before(deadline) {
		p, err := measurePass(inst, 1, tr)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, nil, err
		}
		tl.add(p.res, want)
		if err := diffFigures(ref, p.res.figures()); err != nil {
			tl.fail("traced replica differs from the entry point: " + err.Error())
		}
		walls = append(walls, p.wall)
	}
	pprof.StopCPUProfile()
	profPath := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}

	n := float64(len(walls))
	var wall float64
	for _, w := range walls {
		wall += w
	}
	wall /= n
	m := map[string]metric{}
	var table []shareRow
	var attributed float64
	for l := layer(0); l < numLayers; l++ {
		st, name := &tr.layers[l], layerNames[l]
		busy := st.self.Seconds() / n
		share := ratio(busy, wall)
		attributed += share
		m[name+".calls"] = metric{float64(st.calls) / n, "count"}
		if !countOnly[l] {
			m[name+".samples"] = metric{float64(st.samples) / n, "count"}
			m[name+".msps"] = metric{ratio(float64(st.samples), st.self.Seconds()) / 1e6, "Msps"}
		}
		m[name+".busy_s"] = metric{busy, "s"}
		m[name+".share"] = metric{share, "frac"}
		m[name+".alloc_bytes_per_call"] = metric{ratio(float64(st.alloc), float64(st.calls)), "B"}
		m[name+".call_p99_us"] = metric{st.lat.quantile(0.99).Seconds() * 1e6, "us"}
		if st.calls > 0 {
			table = append(table, shareRow{name, busy, share})
		}
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Share > table[j].Share })
	table = append(table, shareRow{"other", wall * (1 - attributed), 1 - attributed})

	all, viterbi := cp.layerCounts("iterbi")
	m["wifi.rx.fcs_ok_frac"] = metric{ratio(float64(tr.fcsOK), float64(tr.rxFrames)), "frac"}
	m["wifi.rx.viterbi_share"] = metric{ratio(float64(viterbi["wifi.rx"]), float64(all["wifi.rx"])), "frac"}
	m["dsp.resample.cpu_over_core"] = metric{ratio(float64(all["dsp.resample"]), float64(all["core"])), "x"}
	m["core.triggers"] = metric{float64(tr.triggers) / n, "count"}
	m["core.jam_sample_frac"] = metric{ratio(float64(tr.jamSamples), float64(tr.layers[lCore].samples)), "frac"}
	m["mac.attempts_per_datagram"] = metric{ratio(float64(tr.attempts), float64(tr.msdus)), "count"}
	m["mac.delivered_frac"] = metric{ratio(float64(tr.delivered), float64(tr.msdus)), "frac"}
	var stalls [3]float64
	if s, ok := wide.res.(*streamResult); ok {
		stalls = [3]float64{float64(s.producer), float64(s.consumer), float64(s.queueHW)}
	}
	m["flow.producer_stalls"] = metric{stalls[0], "count"}
	m["flow.consumer_stalls"] = metric{stalls[1], "count"}
	m["flow.queue_hw"] = metric{stalls[2], "chunks"}
	eff, tail := poolModel(tr, n, wall, narrow.wall, wide.wall, width)
	m["experiments.pool.efficiency"] = metric{eff, "frac"}
	m["experiments.pool.tail_s"] = metric{tail, "s"}
	m["host.program_s"] = metric{tr.program.Seconds() / n, "s"}
	m["runtime.gc_cpu_frac"] = metric{ratio(wide.gcCPU, wide.totalCPU), "frac"}
	m["runtime.gc_cycles"] = metric{float64(wide.gcCycles), "count"}
	m["runtime.alloc_bytes"] = metric{float64(wide.alloc), "B"}
	m["other.share"] = metric{1 - attributed, "frac"}
	m["trace.overhead"] = metric{ratio(wall, narrow.wall), "x"}

	fmt.Fprintf(log, "# stage share, %s seed %d: traced %.3f s/pass at width 1 over %d passes; untraced %.3f s at width 1, %.3f s at width %d; overhead %.3fx\n",
		o.workload, o.seed, wall, len(walls), narrow.wall, wide.wall, width, ratio(wall, narrow.wall))
	for _, r := range table {
		fmt.Fprintf(log, "#   %-18s %8.4f s %6.1f%%\n", r.Layer, r.SelfS, 100*r.Share)
	}
	fmt.Fprintf(log, "# cpu profile (pprof label \"layer\"): %s\n", profPath)

	out := &output{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
	return out, map[string]any{
		"stage_share":          table,
		"traced_pass_wall_s":   walls,
		"untraced_wall_s":      map[string]float64{"width_1": narrow.wall, fmt.Sprintf("width_%d", width): wide.wall},
		"cpu_profile":          profPath,
		"failures":             tl.failures,
		"cpu_samples_by_layer": all,
	}, nil
}

// poolModel derives the experiment pool's efficiency and tail from the
// traced item spans. Traced time is rescaled to untraced time by the
// width-1 pass (k = untraced ÷ traced wall); the serial remainder (the
// calibration streams outside the pool) is taken off the width-nproc wall
// to give the pool's own wall. Efficiency is Σ item time ÷ (width × pool
// wall). The tail is how much longer greedy in-order dispatch of the
// measured item times onto width workers — what the pool does — takes than
// a perfect split: the wait on a sweep's slowest points.
func poolModel(tr *tracer, n, tracedWall, narrowWall, wideWall float64, width int) (efficiency, tail float64) {
	var items float64
	for _, g := range tr.items {
		workers := make([]float64, min(width, len(g)))
		var sum float64
		for _, d := range g {
			s := d.Seconds()
			sum += s
			free := 0
			for i := range workers {
				if workers[i] < workers[free] {
					free = i
				}
			}
			workers[free] += s
		}
		if len(workers) == 0 {
			continue
		}
		makespan := workers[0]
		for _, w := range workers {
			makespan = max(makespan, w)
		}
		tail += makespan - sum/float64(len(workers))
		items += sum
	}
	if items == 0 {
		return 0, 0
	}
	k := ratio(narrowWall, tracedWall)
	items, tail = items/n*k, tail/n*k
	poolWall := wideWall - (narrowWall - items)
	return ratio(items, float64(width)*poolWall), tail
}

// hostInfo records where a result was measured.
type hostInfo struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	PoolWidth    int    `json:"pool_width"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func describeHost(name string, o options, width int) hostInfo {
	h := hostInfo{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), PoolWidth: width,
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown",
		SourceSHA256: sourceDigest("."),
	}
	if o.trace == 1 {
		h.PoolWidth = 1
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux only).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the benchmark's
// parent directory, identifying the measured code where no commit is
// stamped (a checkout without git metadata). Dot-directories, which hold
// build output, are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
