package bench

import (
	"mflow/internal/apps"
	"mflow/internal/harness"
	"mflow/internal/metrics"
	"mflow/internal/obs"
	"mflow/internal/overlay"
)

// A recording is the job list of one figure: every overlay run (with its
// observed flag) and application-benchmark run the figure's builder asks
// for, deduplicated by key in first-request order. It is captured by
// building the figure once on a recording copy of the Runner whose run,
// runObserved, web and caching log their keys and return zero
// placeholders instead of simulating. That works because no builder's
// key set depends on a result (TestPlansCoverFigures pins it), and it
// keeps each figure's scenario matrix in exactly one place: its builder.
type recording struct {
	runs    []recordedRun
	web     []apps.WebConfig
	caching []apps.CachingConfig
	index   map[string]int
	seen    map[string]bool // app keys
}

type recordedRun struct {
	key      string
	sc       overlay.Scenario // normalized: windows and seed filled in
	observed bool
}

func newRecording() *recording {
	return &recording{index: map[string]int{}, seen: map[string]bool{}}
}

// addRun logs an overlay run; a key requested both plain and observed
// records as observed.
func (rec *recording) addRun(key string, sc overlay.Scenario, observed bool) {
	if i, ok := rec.index[key]; ok {
		rec.runs[i].observed = rec.runs[i].observed || observed
		return
	}
	rec.index[key] = len(rec.runs)
	rec.runs = append(rec.runs, recordedRun{key: key, sc: sc, observed: observed})
}

func (rec *recording) addWeb(cfg apps.WebConfig) {
	if key := webKey(cfg); !rec.seen[key] {
		rec.seen[key] = true
		rec.web = append(rec.web, cfg)
	}
}

func (rec *recording) addCaching(cfg apps.CachingConfig) {
	if key := cachingKey(cfg); !rec.seen[key] {
		rec.seen[key] = true
		rec.caching = append(rec.caching, cfg)
	}
}

// placeholder is the zero result a recording Runner hands its builder.
func placeholder(sc overlay.Scenario) *overlay.Result {
	return &overlay.Result{Scenario: sc, Latency: metrics.NewHistogram()}
}

// recordingFor returns fig's recording, capturing it on first use. An
// unknown figure records nothing.
func (r *Runner) recordingFor(fig string) *recording {
	r.mu.Lock()
	rec, ok := r.recordings[fig]
	r.mu.Unlock()
	if ok {
		return rec
	}
	rec = newRecording()
	dry := &Runner{Warmup: r.Warmup, Measure: r.Measure, Seed: r.Seed, Observe: r.Observe, Causal: r.Causal, rec: rec}
	dry.build(fig)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.recordings[fig]; ok {
		return prev
	}
	if r.recordings == nil {
		r.recordings = make(map[string]*recording)
	}
	r.recordings[fig] = rec
	return rec
}

// hasApp reports whether an application-benchmark result is cached.
func (r *Runner) hasApp(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.webs[key] != nil || r.cachegs[key] != nil
}

// workers resolves the Runner's pool width for Prefetch.
func (r *Runner) workers() int {
	if r.Parallel > 1 {
		return r.Parallel
	}
	return 1
}

// Prefetch executes every run the named figures need on the harness
// worker pool and fills the Runner's caches. Each job owns a value-copied
// scenario, its own seeded RNGs (derived from the scenario seed), a
// private obs registry and, with Causal set, a private profiler — no
// mutable state is shared across jobs — and results are aggregated back in
// submission order: overlay runs in first-request order, then web, then
// caching. Duplicates across figures and keys already cached are skipped
// before dispatch; a cached unobserved result is re-run when a figure
// needs it observed.
func (r *Runner) Prefetch(figs ...string) {
	type outcome struct {
		key      string
		observed bool
		res      *overlay.Result
		web      *apps.WebResult
		caching  *apps.CachingResult
	}

	// One merged job list: first-request order across the figures, a key
	// requested plain in one figure and observed in another runs observed.
	all := newRecording()
	for _, fig := range figs {
		rec := r.recordingFor(fig)
		for _, run := range rec.runs {
			all.addRun(run.key, run.sc, run.observed)
		}
		for _, cfg := range rec.web {
			all.addWeb(cfg)
		}
		for _, cfg := range rec.caching {
			all.addCaching(cfg)
		}
	}

	var jobs []harness.Job[outcome]
	for _, j := range all.runs {
		if res, ok := r.cached(j.key); ok && (res.Obs != nil || !j.observed) {
			continue
		}
		jobs = append(jobs, harness.Job[outcome]{Name: j.key, Run: func() outcome {
			sc := j.sc
			if r.Observe || j.observed {
				sc.Obs = obs.New() // private registry per job
			}
			return outcome{key: j.key, observed: j.observed, res: overlay.RunProbed(sc, r.probes())}
		}})
	}
	for _, cfg := range all.web {
		key := webKey(cfg)
		if r.hasApp(key) {
			continue
		}
		jobs = append(jobs, harness.Job[outcome]{Name: key, Run: func() outcome {
			return outcome{key: key, web: apps.RunWebServing(cfg)}
		}})
	}
	for _, cfg := range all.caching {
		key := cachingKey(cfg)
		if r.hasApp(key) {
			continue
		}
		jobs = append(jobs, harness.Job[outcome]{Name: key, Run: func() outcome {
			return outcome{key: key, caching: apps.RunDataCaching(cfg)}
		}})
	}
	if len(jobs) == 0 {
		return
	}
	for _, out := range harness.Run(r.workers(), jobs) {
		switch {
		case out.res != nil:
			r.store(out.key, out.res, out.observed)
		case out.web != nil:
			r.storeWeb(out.key, out.web)
		case out.caching != nil:
			r.storeCaching(out.key, out.caching)
		}
	}
}
