package bench

import (
	"fmt"
	"sync"

	"mflow/internal/apps"
	"mflow/internal/causal"
	"mflow/internal/metrics"
	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// Runner executes and caches scenario runs so figures sharing sweeps
// (4/8/9) pay for them once. It is safe for concurrent use: figures may
// be built from multiple goroutines, and Prefetch fans a figure's whole
// scenario matrix out over the harness worker pool before the figure is
// formatted serially from the warm cache — which is why parallel output
// is byte-identical to a serial run with the same seed and windows.
type Runner struct {
	// Warmup / Measure control run windows (defaults 3ms / 12ms; use
	// longer windows for final numbers).
	Warmup  sim.Duration
	Measure sim.Duration
	// Seed fixes all runs.
	Seed uint64
	// Parallel is the worker-pool width Tables uses to prefetch a
	// figure's scenario matrix. <= 1 keeps the classic serial path;
	// harness.DefaultWorkers() (GOMAXPROCS) is the natural setting.
	// Determinism does not depend on it.
	Parallel int
	// Causal attaches a fresh causal profiler to every run, so results and
	// artifact records carry per-(kind, stage) latency breakdowns. Probes
	// never perturb measured numbers; off by default so standard artifacts
	// stay byte-identical.
	Causal bool

	mu sync.Mutex
	// results maps each job key to its *overlay.Result, *apps.WebResult
	// or *apps.CachingResult.
	results map[string]any
	// stored lists every result key in first-store order.
	stored []string
	// recordings holds each figure's job list, recorded once (record.go).
	recordings map[string]*recording
	// rec makes this Runner a recording copy: jobs log into it and
	// return placeholders instead of simulating.
	rec *recording
}

// NewRunner returns a Runner with default windows.
func NewRunner() *Runner {
	return &Runner{Warmup: 3 * sim.Millisecond, Measure: 12 * sim.Millisecond}
}

// normalize applies the Runner's default windows and seed to a scenario,
// by value: job construction copies everything it needs, so pool workers
// never share mutable state with the Runner or with each other. The
// result is what both the cache key and the job are built from.
func (r *Runner) normalize(sc overlay.Scenario) overlay.Scenario {
	if sc.Warmup == 0 {
		sc.Warmup = r.Warmup
	}
	if sc.Measure == 0 {
		sc.Measure = r.Measure
	}
	if sc.Seed == 0 {
		sc.Seed = r.Seed
	}
	return sc
}

// memo is the one memoization path: on a recording Runner it logs the job
// and returns placeholder; otherwise it returns the result cached under key,
// running the job and storing its result on a miss.
func memo[T any](r *Runner, key string, run func() T, placeholder T) T {
	j := job{key: key, run: func() any { return run() }}
	if r.rec != nil {
		r.rec.add(j)
		return placeholder
	}
	return r.do(j).(T)
}

// do returns the result cached under j.key, running j on a miss.
func (r *Runner) do(j job) any {
	r.mu.Lock()
	res, ok := r.results[j.key]
	r.mu.Unlock()
	if ok {
		return res
	}
	return r.store(j.key, j.run())
}

// store records res under key and returns the cache's winner: the first
// stored result wins. Runs are deterministic, so any two results for one
// key are identical, and keeping the first avoids re-pointing callers.
func (r *Runner) store(key string, res any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.results[key]; ok {
		return prev
	}
	if r.results == nil {
		r.results = make(map[string]any)
	}
	r.stored = append(r.stored, key)
	r.results[key] = res
	return res
}

// placeholderRun is the zero result a recording Runner hands its builders.
// Builders only read results, so one shared value serves every recording.
var placeholderRun = &overlay.Result{Latency: metrics.NewHistogram()}

// run memoizes one overlay scenario. Every run gets a private obs registry,
// so results carry queue-depth and per-stage latency series alongside Gbps;
// the key is taken before the registry is attached, so a fresh registry
// pointer per run does not defeat caching.
func (r *Runner) run(sc overlay.Scenario) *overlay.Result {
	sc = r.normalize(sc)
	return memo(r, sc.Key(), func() *overlay.Result {
		sc := sc // a recorded job may run on several goroutines at once
		sc.Obs = obs.New()
		return overlay.RunProbed(sc, r.probes())
	}, placeholderRun)
}

// SchedTelemetry sums scheduler self-accounting over every cached overlay
// run (counters add, peak heap depth takes the max) and returns the total
// wire segments those runs delivered, the denominator for a
// heap-ops-per-packet figure. Application-level runs (web serving, data
// caching) are not included — they drive their own schedulers.
func (r *Runner) SchedTelemetry() (st sim.SchedStats, segments uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range r.results {
		if res, ok := res.(*overlay.Result); ok {
			st.Merge(res.Sched)
			segments += res.DeliveredSegments
		}
	}
	return st, segments
}

// probes returns a fresh per-run probe set when causal attribution is on.
// One profiler per run: packet ids restart with each scheduler.
func (r *Runner) probes() overlay.Probes {
	if !r.Causal {
		return overlay.Probes{}
	}
	return overlay.Probes{Causal: causal.NewProfiler()}
}

func (r *Runner) single(sys steering.System, proto skb.Proto, size int) *overlay.Result {
	return r.run(overlay.Scenario{System: sys, Proto: proto, MsgSize: size})
}

// web memoizes the Fig. 11 web-serving benchmark for one system; the
// doubled measure window matches the application benchmark's original
// setup.
func (r *Runner) web(sys steering.System) *apps.WebResult {
	cfg := apps.WebConfig{System: sys, Warmup: r.Warmup, Measure: 2 * r.Measure, Seed: r.Seed}
	key := fmt.Sprintf("web|sys=%v|warmup=%d|measure=%d|seed=%d",
		cfg.System, cfg.Warmup, cfg.Measure, cfg.Seed)
	return memo(r, key, func() *apps.WebResult { return apps.RunWebServing(cfg) }, &apps.WebResult{})
}

// caching memoizes the Fig. 13 data-caching benchmark for one system and
// client count.
func (r *Runner) caching(sys steering.System, clients int) *apps.CachingResult {
	cfg := apps.CachingConfig{System: sys, Clients: clients, Warmup: r.Warmup, Measure: r.Measure, Seed: r.Seed}
	key := fmt.Sprintf("caching|sys=%v|clients=%d|warmup=%d|measure=%d|seed=%d",
		cfg.System, cfg.Clients, cfg.Warmup, cfg.Measure, cfg.Seed)
	return memo(r, key, func() *apps.CachingResult { return apps.RunDataCaching(cfg) }, &apps.CachingResult{})
}

// Figures lists every figure identifier Tables accepts, in paper order,
// with the builder that renders it.
var Figures = []struct {
	Name  string
	build func(*Runner) []*Table
}{
	{"4", (*Runner).Fig4},
	{"7", func(r *Runner) []*Table { return []*Table{r.Fig7()} }},
	{"8", (*Runner).Fig8},
	{"9", (*Runner).Fig9},
	{"10", (*Runner).Fig10},
	{"11", (*Runner).Fig11},
	{"12", func(r *Runner) []*Table { return []*Table{r.Fig12()} }},
	{"13", func(r *Runner) []*Table { return []*Table{r.Fig13()} }},
	{"queues", func(r *Runner) []*Table { return []*Table{r.Queues()} }},
	{"ablations", (*Runner).Ablations},
	{"extensions", (*Runner).Extensions},
	{"chaos", (*Runner).Chaos},
	{"overload", (*Runner).Overload},
	{"fabric", (*Runner).Fabric},
	{"wire", (*Runner).Wire},
	{"all", (*Runner).All},
}

// Tables builds the named figure's tables. When r.Parallel > 1, the
// figure's recorded job list (see record.go) is first executed on the
// harness worker pool; formatting then reads the warm cache serially,
// keeping the output byte-identical to a fully serial run.
func (r *Runner) Tables(fig string) ([]*Table, error) {
	if r.Parallel > 1 {
		r.Prefetch(fig)
	}
	return r.build(fig)
}

// build runs the named figure's builder.
func (r *Runner) build(fig string) ([]*Table, error) {
	for _, f := range Figures {
		if f.Name == fig {
			return f.build(r), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q", fig)
}
