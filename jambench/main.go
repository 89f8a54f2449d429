// Command jambench is the repository's end-to-end benchmark. It runs one of
// four seeded batch workloads drawn from the paper's experiments through
// their public entry points, checks every output against the paper's bands
// (and, at the default seed, against the recorded golden figures), and
// prints one JSON result line. With --trace 1 it instead runs a traced
// replica of the workload that times every call into each program layer,
// proves the replica reproduces the untraced outputs exactly, and reports
// per-layer metrics plus a stage-share table. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// sizes fixes how much work one pass of each workload does.
type sizes struct {
	detectFrames  int       // frames per SNR point, per detection curve
	snrs          []float64 // SNR sweep of every detection curve
	victimPackets int       // datagrams per attenuation point
	attenuations  []float64 // variable-attenuator sweep
	wimaxFrames   int       // downlink frames per detector configuration
	streamSamples int       // samples per jammer-stream pass
	streamChunk   int       // flowgraph chunk size
}

// benchSizes keeps every pass between about one and three seconds on a
// 2-core host, so a run of a few seconds yields several passes.
var benchSizes = sizes{
	detectFrames:  150,
	snrs:          experiments.DefaultSNRSweep,
	victimPackets: 40,
	attenuations:  experiments.DefaultAttenuationSweep,
	wimaxFrames:   60,
	streamSamples: 25_000_000,
	streamChunk:   4096,
}

// defaultSeed reproduces the repository's own experiment configurations
// (Fig6Config's seed 61, DefaultJamSweep's 101, Fig. 12's 5); the golden
// figures are recorded at it.
const defaultSeed = 1

// seedOffset maps a benchmark seed to a non-negative offset added to every
// workload seed: 0 at the default seed, distinct for the first million
// seeds. Non-negative workload seeds keep the frame scrambler seeds the
// entry points derive valid.
func seedOffset(seed int64) int64 {
	return int64(uint64(seed-defaultSeed)%1_000_000) * 1000
}

// instance is one workload set up for a seed.
type instance interface {
	// prepare readies the next pass at the given pool width; with a
	// tracer the pass runs the traced replica instead of the entry point.
	prepare(width int, tr *tracer) error
	// run executes one pass; only run is timed.
	run() (result, error)
}

// result is one pass's output.
type result interface {
	figures() figures    // every output figure, exactly
	bands() []check      // the paper's band checks
	airSeconds() float64 // simulated air time the real testbed would need
	items() float64      // datagrams, detection frames, downlink or stream frames
}

type workload struct {
	name string
	new  func(seed int64, sz sizes) (instance, error)
}

var workloads = []workload{
	{"detect-sweep", func(seed int64, sz sizes) (instance, error) { return newDetectSweep(seed, sz) }},
	{"victim-link", func(seed int64, sz sizes) (instance, error) { return newVictimLink(seed, sz) }},
	{"wimax-downlink", func(seed int64, sz sizes) (instance, error) { return newWimaxDownlink(seed, sz) }},
	{"jammer-stream", func(seed int64, sz sizes) (instance, error) { return newJammerStream(seed, sz) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type figure struct{ name, value string }

// figures lists a pass's outputs as exact strings (shortest round-trip
// float formatting), so golden and replica comparisons are bit exact.
type figures []figure

func (f *figures) add(name string, v float64) {
	f.addString(name, strconv.FormatFloat(v, 'g', -1, 64))
}

func (f *figures) addString(name, v string) { *f = append(*f, figure{name, v}) }

func (f figures) asMap() map[string]string {
	m := make(map[string]string, len(f))
	for _, x := range f {
		m[x.name] = x.value
	}
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

type check struct {
	name string
	ok   bool
}

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → figure → value, recorded at the default seed with
// benchSizes.
func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// evaluate checks one pass: every band check is one checked output, and
// with want set every recorded figure is one more, failing when the pass
// differs from it or lacks it.
func evaluate(res result, want map[string]string) (attempted, failed int, failures []string) {
	for _, c := range res.bands() {
		attempted++
		if !c.ok {
			failed++
			failures = append(failures, "band "+c.name)
		}
	}
	if want == nil {
		return attempted, failed, failures
	}
	got := res.figures().asMap()
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		attempted++
		if v, ok := got[n]; !ok || v != want[n] {
			failed++
			failures = append(failures, fmt.Sprintf("golden %s: got %q want %q", n, v, want[n]))
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			attempted++
			failed++
			failures = append(failures, "golden "+n+": not recorded")
		}
	}
	return attempted, failed, failures
}

// diffFigures returns the first mismatch between two passes' figures.
func diffFigures(a, b figures) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d figures vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: %s vs %s=%s", a[i].name, a[i].value, b[i].name, b[i].value)
		}
	}
	return nil
}

// tally accumulates the correctness counts of a run.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(res result, want map[string]string) {
	a, f, msgs := evaluate(res, want)
	t.attempted += a
	t.failed += f
	t.failures = append(t.failures, msgs...)
}

func (t *tally) fail(msg string) {
	t.attempted++
	t.failed++
	t.failures = append(t.failures, msg)
}

// passStats is one timed pass.
type passStats struct {
	wall, cpu       float64 // seconds
	alloc           uint64  // heap bytes allocated
	gcCycles        uint64
	gcCPU, totalCPU float64 // runtime/metrics CPU-class seconds
	air, items      float64
	peakMB          float64 // resident memory high-water during the pass
	stolen          float64 // share of the host's CPU capacity the hypervisor stole
	res             result
}

// measurePass prepares and runs one pass, timing only run. A GC first
// leaves every pass the same clean heap.
func measurePass(inst instance, width int, tr *tracer) (passStats, error) {
	if err := inst.prepare(width, tr); err != nil {
		return passStats{}, err
	}
	runtime.GC()
	before := readRuntime()
	rss := startRSSSampler()
	steal0 := stealTicks()
	cpu0 := processCPU()
	start := time.Now()
	res, err := inst.run()
	wall := time.Since(start).Seconds()
	cpu := processCPU() - cpu0
	steal := stealTicks() - steal0
	peak := rss.stop()
	after := readRuntime()
	if err != nil {
		return passStats{}, err
	}
	return passStats{
		wall: wall, cpu: cpu,
		alloc:    after.alloc - before.alloc,
		gcCycles: after.gcCycles - before.gcCycles,
		gcCPU:    after.gcCPU - before.gcCPU,
		totalCPU: after.totalCPU - before.totalCPU,
		air:      res.airSeconds(), items: res.items(), res: res,
		peakMB: float64(peak) / (1 << 20),
		stolen: float64(steal) / (userHZ * wall * float64(runtime.NumCPU())),
	}, nil
}

// userHZ is the tick rate of /proc/stat's CPU times on Linux.
const userHZ = 100

// stealTicks returns the CPU time the hypervisor has stolen from this
// virtual machine, summed over its CPUs, in /proc/stat ticks; 0 where
// that is not available (bare metal, another OS).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ownWall is the pass's wall time less the hypervisor's share of it: with
// a share f of the VM's CPU capacity stolen, evenly over its CPUs, the
// program ran for (1-f) of the wall time whether it kept one CPU busy or
// all of them.
func (p passStats) ownWall() float64 { return p.wall * (1 - p.stolen) }

// maxStolen is the stolen share above which a pass measured the
// hypervisor's other tenants rather than the program.
const maxStolen = 0.02

// undisturbed returns the passes the hypervisor stole at most maxStolen of
// the host's CPU from, or, when fewer than half the passes (or minPasses)
// qualify, that many of the least-stolen passes.
func undisturbed(passes []passStats) []passStats {
	sorted := slices.Clone(passes)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].stolen < sorted[j].stolen })
	keep := 0
	for keep < len(sorted) && sorted[keep].stolen <= maxStolen {
		keep++
	}
	return sorted[:min(len(sorted), max(keep, minPasses, (len(sorted)+1)/2))]
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// rssSampler tracks the memory the Go runtime holds from the OS (mapped
// minus released) every few milliseconds during one pass. The per-pass
// peak is steadier than the process's lifetime high-water mark, which one
// unlucky GC cycle sets for the whole run.
type rssSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		s.peak = max(s.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
	}
	read()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() uint64 {
	close(s.done)
	s.wg.Wait()
	return s.peak
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	sz       sizes
	// golden holds each workload's figures at the default seed; nil skips
	// the golden comparison.
	golden map[string]map[string]string
}

// minPasses is the fewest measured passes a run reports a median over.
const minPasses = 3

// setupProbes is how many fresh processes time the set-up.
const setupProbes = 11

func main() {
	var o options
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&o.seconds, "seconds", 25, "measurement window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced replica and reports per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "jambench", "results"), "directory for result files and profiles")
	flag.BoolVar(&probe, "setup-probe", false, "set the workload up and exit (used to time set-up in a fresh process)")
	flag.Parse()

	w, err := findWorkload(o.workload)
	if err == nil && (o.trace < 0 || o.trace > 1 || o.seconds < 1) {
		err = errors.New("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err == nil && probe {
		_, err = w.new(o.seed, benchSizes)
		if err == nil {
			return
		}
	}
	if err == nil {
		o.sz = benchSizes
		o.golden, err = golden()
	}
	var out *output
	if err == nil {
		out, err = runBenchmark(w, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jambench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runBenchmark runs one workload and returns the result line; the host
// record and (traced) the stage-share table go to log first.
func runBenchmark(w workload, o options, log io.Writer) (*output, error) {
	width := runtime.GOMAXPROCS(0)
	host := describeHost(w.name, o, width)
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(log, string(hostLine))

	var setupS float64
	if o.trace == 0 {
		if setupS, err = probeSetup(w.name, o.seed); err != nil {
			return nil, err
		}
	}
	inst, err := w.new(o.seed, o.sz)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	if r, ok := inst.(interface{ reference() error }); ok {
		if err := r.reference(); err != nil {
			return nil, err
		}
	}
	var want map[string]string
	if o.golden != nil && o.seed == defaultSeed {
		if want = o.golden[w.name]; want == nil {
			return nil, fmt.Errorf("no golden figures for %s", w.name)
		}
	}

	var out *output
	var report map[string]any
	if o.trace == 0 {
		out, report, err = untracedRun(inst, o, width, want, setupS)
	} else {
		out, report, err = tracedRun(inst, o, width, want, log)
	}
	if err != nil {
		return nil, err
	}
	report["host"] = host
	report["result"] = out
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, o.trace)), report); err != nil {
		return nil, err
	}
	return out, nil
}

// untracedRun measures the entry point at pool width nproc: one warm-up
// pass, then passes until the window closes, reporting medians.
func untracedRun(inst instance, o options, width int, want map[string]string, setupS float64) (*output, map[string]any, error) {
	var tl tally
	warm, err := measurePass(inst, width, nil)
	if err != nil {
		return nil, nil, err
	}
	tl.add(warm.res, want)
	ref := warm.res.figures()

	var passes []passStats
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		p, err := measurePass(inst, width, nil)
		if err != nil {
			return nil, nil, err
		}
		tl.add(p.res, want)
		if err := diffFigures(ref, p.res.figures()); err != nil {
			tl.fail("pass differs from the first: " + err.Error())
		}
		passes = append(passes, p)
	}
	used := undisturbed(passes)
	col := func(f func(p passStats) float64) float64 {
		xs := make([]float64, len(used))
		for i, p := range used {
			xs[i] = f(p)
		}
		return median(xs)
	}
	m := map[string]metric{
		"wall_s":               {col(passStats.ownWall), "s"},
		"cpu_s":                {col(func(p passStats) float64 { return p.cpu }), "s"},
		"realtime_factor":      {col(func(p passStats) float64 { return p.air / p.ownWall() }), "x"},
		"alloc_bytes_per_item": {col(func(p passStats) float64 { return float64(p.alloc) / p.items }), "B"},
		"peak_rss_mb":          {col(func(p passStats) float64 { return p.peakMB }), "MB"},
		"setup_s":              {setupS, "s"},
	}
	out := &output{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
	walls := make([]float64, len(passes))
	stolen := make([]float64, len(passes))
	for i, p := range passes {
		walls[i], stolen[i] = p.wall, p.stolen
	}
	return out, map[string]any{
		"pass_wall_s":       walls,
		"pass_stolen_share": stolen,
		"passes_used":       len(used),
		"failures":          tl.failures,
	}, nil
}

// probeSetup times set-up in fresh processes: exec, runtime and package
// init, and building and programming the workload's first radio stack.
func probeSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ds := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
