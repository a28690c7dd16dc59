// Command benchmark measures the mflow simulator end to end and layer by
// layer. It builds its workloads' scenarios from a seed, runs them through
// the simulator's public entry points (bench.Runner, overlay.Run and
// RunProbed, harness.Map), checks that every run is correct and repeats
// exactly, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 675, "failed": 0, "metrics": {...}}
//
// Untraced runs report the end-to-end metrics; traced runs (-trace 1)
// write a CPU profile and a span file and report the per-layer metrics.
//
// Usage, from the repository root (benchmark/run.sh builds and runs it):
//
//	bash benchmark/run.sh --workload paper-all --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --trace 1
//	bash benchmark/run.sh --pairs 10 --a /tmp/bench-parent --b /tmp/bench-change
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// A run times set-up reps until it has at least setupReps of them and
// setupBudget has passed, so the set-up median rests on many samples where
// set-up is cheap. minTimedReps is the fewest timed reps a run takes
// however short -seconds is.
const (
	setupReps    = 5
	setupBudget  = 2 * time.Second
	minTimedReps = 3
)

// committedArtifact is what paper-all must reproduce at seed 42.
const committedArtifact = "BENCH_all.json"

func main() {
	var (
		name     = flag.String("workload", "", "workload: paper-all|inspect|wire-fabric|chaos-overload, or all (one process per workload)")
		seed     = flag.Uint64("seed", 42, "seed the workload's scenarios are built from")
		seconds  = flag.Float64("seconds", 20, "host seconds the timed reps run for")
		trace    = flag.Int("trace", 0, "1: traced run writing a CPU profile and spans and reporting per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>.cpu.prof and <workload>.spans.json")
		pairs    = flag.Int("pairs", 0, "compare the benchmark binaries -a (parent) and -b (change) over this many alternating pairs")
		binA     = flag.String("a", "", "with -pairs: the parent's benchmark binary")
		binB     = flag.String("b", "", "with -pairs: the change's benchmark binary")
	)
	flag.Parse()

	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	runSeconds := time.Duration(*seconds * float64(time.Second))
	switch {
	case *pairs > 0:
		os.Exit(runPairs(*pairs, *binA, *binB, *name, *seed, *seconds))
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, *trace, *traceDir))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := measure(w, options{seed: *seed, seconds: runSeconds, traced: *trace == 1, traceDir: *traceDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runAll runs every workload in a process of its own, so each reports its
// own peak RSS, and returns the worst exit code.
func runAll(seed uint64, seconds float64, trace int, traceDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-trace-dir", traceDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w.name, err)
			code = 2
		}
	}
	return code
}

type options struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	traceDir string
}

// sample is one rep's host-side cost.
type sample struct {
	wall, cpu      time.Duration
	segs           uint64
	alloc, mallocs uint64
	gcs            uint32
}

// gate counts attempted and failed runs across a run's reps. A run fails
// on its own check or when it does not repeat the reference rep exactly;
// the reference is the first rep with the same windows, or the committed
// artifact for paper-all at seed 42.
type gate struct {
	ref               map[bool]*repOut
	attempted, failed int
	first             string
}

func (g *gate) account(setup bool, o repOut) {
	ref := g.ref[setup]
	if ref == nil {
		ref = &o
		g.ref[setup] = ref
	}
	failed := 0
	for i, why := range o.failures {
		g.attempted++
		if why == "" && (i >= len(ref.prints) || o.prints[i] != ref.prints[i]) {
			why = fmt.Sprintf("run %d does not repeat the reference rep exactly", i)
		}
		if why != "" {
			failed++
			g.note(why)
		}
	}
	if failed == 0 && (len(o.prints) != len(ref.prints) || o.digest != ref.digest) {
		failed++
		g.note("rep output differs from the reference rep")
	}
	g.failed += failed
}

func (g *gate) note(why string) {
	if g.first == "" {
		g.first = why
	}
}

// result is everything one workload run measured.
type result struct {
	w    *workload
	o    options
	gate gate
	// setup, timed and traced are the set-up, untraced full and traced
	// full reps' samples.
	setup, timed, traced []sample
	// full is the warm-up rep's output; its counts hold for every full rep.
	full     repOut
	hostTime map[string]time.Duration
	peakRSS  float64
}

func measure(w *workload, o options) (*result, error) {
	r := &result{w: w, o: o, gate: gate{ref: map[bool]*repOut{}}}
	if w.matrix == nil && o.seed == 42 {
		ref, err := committedReference(committedArtifact)
		if err != nil {
			return nil, fmt.Errorf("paper-all at seed 42 must match the committed artifact: %w", err)
		}
		r.gate.ref[false] = ref
	}
	if !o.traced {
		start := time.Now()
		for i := 0; i < setupReps || time.Since(start) < setupBudget; i++ {
			s, _ := r.rep(true, nil, fmt.Sprintf("setup-%d", i))
			r.setup = append(r.setup, s)
		}
	}
	_, r.full = r.rep(false, nil, "warmup")
	if !o.traced {
		r.timed = r.reps(o.seconds, minTimedReps, nil, "rep")
	} else if err := r.trace(); err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.peakRSS = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	return r, nil
}

// trace splits the run's seconds between untraced reps, the baseline for
// the tracing overhead, and reps under the CPU profiler with spans on.
func (r *result) trace() error {
	half := r.o.seconds / 2
	r.timed = r.reps(half, 1, nil, "rep")
	if err := os.MkdirAll(r.o.traceDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(r.o.traceDir, r.w.name+".cpu.prof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start CPU profile: %w", err)
	}
	r.traced = r.reps(half, 1, tr, "traced")
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", profPath, err)
	}
	if !r.w.probed {
		r.full.counts.causal = probeReference(r.w.shape(r.o.seed, false))
	}
	text, err := pprofTraces(profPath)
	if err != nil {
		return err
	}
	if r.hostTime, err = parseTraces(text); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(r.o.traceDir, r.w.name+".spans.json"))
}

// reps runs full reps until budget has passed and at least min have run.
func (r *result) reps(budget time.Duration, min int, tr *tracer, prefix string) []sample {
	var out []sample
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		s, _ := r.rep(false, tr, fmt.Sprintf("%s-%d", prefix, i))
		out = append(out, s)
	}
	return out
}

// rep times one rep, then checks it with the clock stopped. The previous
// rep's runner and results are garbage by then; collecting them first
// makes every rep start from the same heap, instead of one whose GC pacing
// and peak size depend on what the last rep left behind.
func (r *result) rep(setup bool, tr *tracer, id string) (sample, repOut) {
	s := r.w.shape(r.o.seed, setup)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	end := tr.begin("rep", id, "", 0)
	finish := r.w.safeRun(s, tr, id)
	end()
	smp := sample{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	out := finish()
	smp.segs = out.segments
	smp.alloc = m1.TotalAlloc - m0.TotalAlloc
	smp.mallocs = m1.Mallocs - m0.Mallocs
	smp.gcs = m1.NumGC - m0.NumGC
	r.gate.account(setup, out)
	return smp, out
}

// safeRun is run with a panic anywhere in the rep reported as a failed
// run rather than a crash.
func (w *workload) safeRun(s shape, tr *tracer, id string) (finish func() repOut) {
	defer func() {
		if p := recover(); p != nil {
			why := fmt.Sprintf("panic: %v", p)
			finish = func() repOut { return repOut{prints: []string{""}, failures: []string{why}} }
		}
	}()
	return w.run(s, tr, id)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one reported number; q1/q3/n describe its spread over reps
// (n == 0 for a single value).
type metric struct {
	name, unit    string
	value, q1, q3 float64
	n             int
	note          string
}

// overReps reports a metric measured once per rep as its median, with the
// quartiles and the rep count.
func overReps(name, unit string, xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{name: name, unit: unit, value: med, q1: q1, q3: q3, n: len(xs)}
}

func each(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func (r *result) endToEnd() []metric {
	return []metric{
		overReps("wall_s", "s", each(r.timed, func(s sample) float64 { return s.wall.Seconds() })),
		overReps("cpu_s", "s", each(r.timed, func(s sample) float64 { return s.cpu.Seconds() })),
		overReps("sim_msegs_per_s", "Mseg/s", each(r.timed, func(s sample) float64 { return float64(s.segs) / s.wall.Seconds() / 1e6 })),
		overReps("setup_s", "s", each(r.setup, func(s sample) float64 { return s.wall.Seconds() })),
		{name: "peak_rss_mb", unit: "MB", value: r.peakRSS},
		{name: "paper_err_pct", unit: "%", value: r.full.paperErr, note: fmt.Sprintf("%d paper claims", r.full.claims)},
	}
}

func (r *result) perLayer() []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	countMetrics(r.full.counts, r.full.segments, add)

	var segs uint64
	for _, s := range r.traced {
		segs += s.segs
	}
	host := func(name string, d time.Duration) {
		const samplePeriod = 10 * time.Millisecond // runtime/pprof's 100 Hz
		out = append(out, metric{
			name: "host." + name + "_ns_per_seg", unit: "ns/seg",
			value: ratio(float64(d.Nanoseconds()), float64(segs)),
			note:  fmt.Sprintf("%d samples", d/samplePeriod),
		})
	}
	var stack time.Duration
	for _, layer := range hostLayers {
		host(layer, r.hostTime[layer])
	}
	for _, layer := range stackLayers {
		stack += r.hostTime[layer]
	}
	host("stack", stack)
	perSeg := func(f func(sample) uint64) []float64 {
		return each(r.timed, func(s sample) float64 { return ratio(float64(f(s)), float64(s.segs)) })
	}
	out = append(out,
		overReps("runtime.alloc_bytes_per_seg", "B/seg", perSeg(func(s sample) uint64 { return s.alloc })),
		overReps("runtime.mallocs_per_seg", "1/seg", perSeg(func(s sample) uint64 { return s.mallocs })),
		overReps("runtime.gc_cycles", "count", each(r.timed, func(s sample) float64 { return float64(s.gcs) })))
	_, wall, _ := quartiles(each(r.timed, func(s sample) float64 { return s.wall.Seconds() }))
	_, cpu, _ := quartiles(each(r.timed, func(s sample) float64 { return s.cpu.Seconds() }))
	_, tracedWall, _ := quartiles(each(r.traced, func(s sample) float64 { return s.wall.Seconds() }))
	add("harness.busy_frac", "ratio", ratio(cpu, float64(runtime.GOMAXPROCS(0))*wall))
	add("trace.overhead_pct", "%", 100*(ratio(tracedWall, wall)-1))
	return out
}

// print writes the human-readable metric lines and then the result line.
// The result line carries exactly the metrics BENCHMARK.json declares for
// the run's mode.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s seed %d: %s\n", r.w.name, r.o.seed, r.w.why)
	fmt.Fprintf(w, "# %s %s/%s, GOMAXPROCS %d; reps: %d set-up, 1 warm-up, %d timed, %d traced\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0),
		len(r.setup), len(r.timed), len(r.traced))
	metrics, declared := r.endToEnd(), endToEnd
	if r.o.traced {
		metrics, declared = r.perLayer(), perLayer
	}
	byName := map[string]metric{}
	for _, m := range metrics {
		byName[m.name] = m
		line := fmt.Sprintf("%-34s %14.6g %-7s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", m.q1, m.q3, m.n)
		}
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "sim_digest sha256:%s\n", hex.EncodeToString(r.full.digest[:]))
	if r.gate.first != "" {
		fmt.Fprintf(w, "# first failure: %s\n", r.gate.first)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.gate.failed == 0, r.gate.attempted, r.gate.failed, map[string]value{}}
	for _, d := range declared {
		m, ok := byName[d.name]
		if !ok || m.unit != d.unit {
			return fmt.Errorf("metric %s (%s) was not measured", d.name, d.unit)
		}
		line.Metrics[d.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
