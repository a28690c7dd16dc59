package bench

import (
	"fmt"
	"sync"

	"mflow/internal/apps"
	"mflow/internal/causal"
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
	// Observe attaches a fresh obs.Registry to every run (NewRunner
	// enables it), so figure results carry queue-depth and per-stage
	// latency series alongside Gbps — see Queues().
	Observe bool
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

	mu      sync.Mutex
	cache   map[string]*overlay.Result
	webs    map[string]*apps.WebResult
	cachegs map[string]*apps.CachingResult
	// stored lists every cache key in first-store order.
	stored []string
	// recordings holds each figure's job list, recorded once (record.go).
	recordings map[string]*recording
	// rec makes this Runner a recording copy: runs log into it and
	// return zero placeholders instead of simulating.
	rec *recording
}

// NewRunner returns a Runner with default windows and observability on.
func NewRunner() *Runner {
	return &Runner{Warmup: 3 * sim.Millisecond, Measure: 12 * sim.Millisecond, Observe: true}
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

// cached returns the result stored for key, if any.
func (r *Runner) cached(key string) (*overlay.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.cache[key]
	return res, ok
}

// store records res under key and returns the cache's winner. Without
// overwrite the first stored result wins (runs are deterministic, so any
// two results for one key are identical — keeping the first avoids
// re-pointing callers); overwrite replaces a result that lacks the obs
// registry an observed re-run carries.
func (r *Runner) store(key string, res *overlay.Result, overwrite bool) *overlay.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = make(map[string]*overlay.Result)
	}
	prev, ok := r.cache[key]
	if ok && !overwrite {
		return prev
	}
	if !ok {
		r.stored = append(r.stored, key)
	}
	r.cache[key] = res
	return res
}

func (r *Runner) run(sc overlay.Scenario) *overlay.Result {
	sc = r.normalize(sc)
	// The key is computed before a registry is attached: a fresh registry
	// pointer per run must not defeat caching.
	key := sc.Key()
	if r.rec != nil {
		r.rec.addRun(key, sc, false)
		return placeholder(sc)
	}
	if res, ok := r.cached(key); ok {
		return res
	}
	if r.Observe && sc.Obs == nil {
		sc.Obs = obs.New()
	}
	return r.store(key, overlay.RunProbed(sc, r.probes()), false)
}

// SchedTelemetry sums scheduler self-accounting over every cached overlay
// run (counters add, peak heap depth takes the max) and returns the total
// wire segments those runs delivered, the denominator for a
// heap-ops-per-packet figure. Application-level runs (web serving, data
// caching) are not included — they drive their own schedulers.
func (r *Runner) SchedTelemetry() (st sim.SchedStats, segments uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range r.cache {
		st.Merge(res.Sched)
		segments += res.DeliveredSegments
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

// runObserved is run with a per-call observability guarantee: the result
// always carries an obs snapshot, re-running an unobserved cache entry if
// needed. Queues uses it instead of flipping r.Observe mid-matrix — the
// old implementation mutated shared Runner state between runs and would
// race once figures execute concurrently.
func (r *Runner) runObserved(sc overlay.Scenario) *overlay.Result {
	sc = r.normalize(sc)
	key := sc.Key()
	if r.rec != nil {
		r.rec.addRun(key, sc, true)
		return placeholder(sc)
	}
	if res, ok := r.cached(key); ok && res.Obs != nil {
		return res
	}
	sc.Obs = obs.New()
	return r.store(key, overlay.RunProbed(sc, r.probes()), true)
}

func (r *Runner) single(sys steering.System, proto skb.Proto, size int) *overlay.Result {
	return r.run(overlay.Scenario{System: sys, Proto: proto, MsgSize: size})
}

// webConfig is the Fig. 11 configuration for one system; the doubled
// measure window matches the application benchmark's original setup.
func (r *Runner) webConfig(sys steering.System) apps.WebConfig {
	return apps.WebConfig{
		System: sys,
		Warmup: r.Warmup, Measure: 2 * r.Measure,
		Seed: r.Seed,
	}
}

func webKey(cfg apps.WebConfig) string {
	return fmt.Sprintf("web|sys=%v|warmup=%d|measure=%d|seed=%d",
		cfg.System, cfg.Warmup, cfg.Measure, cfg.Seed)
}

// web memoizes RunWebServing the way run memoizes overlay scenarios.
func (r *Runner) web(sys steering.System) *apps.WebResult {
	cfg := r.webConfig(sys)
	key := webKey(cfg)
	if r.rec != nil {
		r.rec.addWeb(cfg)
		return &apps.WebResult{Config: cfg}
	}
	r.mu.Lock()
	res, ok := r.webs[key]
	r.mu.Unlock()
	if ok {
		return res
	}
	return r.storeWeb(key, apps.RunWebServing(cfg))
}

func (r *Runner) storeWeb(key string, res *apps.WebResult) *apps.WebResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.webs == nil {
		r.webs = make(map[string]*apps.WebResult)
	}
	if prev, ok := r.webs[key]; ok {
		return prev
	}
	r.stored = append(r.stored, key)
	r.webs[key] = res
	return res
}

// cachingConfig is the Fig. 13 configuration for one system/client count.
func (r *Runner) cachingConfig(sys steering.System, clients int) apps.CachingConfig {
	return apps.CachingConfig{
		System: sys, Clients: clients,
		Warmup: r.Warmup, Measure: r.Measure,
		Seed: r.Seed,
	}
}

func cachingKey(cfg apps.CachingConfig) string {
	return fmt.Sprintf("caching|sys=%v|clients=%d|warmup=%d|measure=%d|seed=%d",
		cfg.System, cfg.Clients, cfg.Warmup, cfg.Measure, cfg.Seed)
}

// caching memoizes RunDataCaching.
func (r *Runner) caching(sys steering.System, clients int) *apps.CachingResult {
	cfg := r.cachingConfig(sys, clients)
	key := cachingKey(cfg)
	if r.rec != nil {
		r.rec.addCaching(cfg)
		return &apps.CachingResult{Config: cfg}
	}
	r.mu.Lock()
	res, ok := r.cachegs[key]
	r.mu.Unlock()
	if ok {
		return res
	}
	return r.storeCaching(key, apps.RunDataCaching(cfg))
}

func (r *Runner) storeCaching(key string, res *apps.CachingResult) *apps.CachingResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cachegs == nil {
		r.cachegs = make(map[string]*apps.CachingResult)
	}
	if prev, ok := r.cachegs[key]; ok {
		return prev
	}
	r.stored = append(r.stored, key)
	r.cachegs[key] = res
	return res
}

// Figures lists every figure identifier Tables accepts, in paper order.
var Figures = []string{"4", "7", "8", "9", "10", "11", "12", "13", "queues", "ablations", "extensions", "chaos", "overload", "fabric", "wire", "all"}

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
	switch fig {
	case "4":
		return r.Fig4(), nil
	case "7":
		return []*Table{r.Fig7()}, nil
	case "8":
		return r.Fig8(), nil
	case "9":
		return r.Fig9(), nil
	case "10":
		return r.Fig10(), nil
	case "11":
		return r.Fig11(), nil
	case "12":
		return []*Table{r.Fig12()}, nil
	case "13":
		return []*Table{r.Fig13()}, nil
	case "queues":
		return []*Table{r.Queues()}, nil
	case "ablations":
		return r.Ablations(), nil
	case "extensions":
		return r.Extensions(), nil
	case "chaos":
		return r.Chaos(), nil
	case "overload":
		return r.Overload(), nil
	case "fabric":
		return r.Fabric(), nil
	case "wire":
		return r.Wire(), nil
	case "all":
		return r.All(), nil
	}
	return nil, fmt.Errorf("bench: unknown figure %q", fig)
}
