package bench

import (
	"mflow/internal/harness"
)

// A job is one memoized simulation: an overlay run, a web-serving run or a
// data-caching run, identified by its cache key.
type job struct {
	key string
	run func() any
}

// A recording is the job list of one figure: every job the figure's
// builder asks for, deduplicated by key in first-request order. It is
// captured by building the figure once on a recording copy of the Runner,
// whose memo logs each job and returns a placeholder instead of
// simulating. That works because no builder's key set depends on a result
// (TestPlansCoverFigures pins it), and it keeps each figure's scenario
// matrix in exactly one place: its builder.
type recording struct {
	jobs []job
	seen map[string]bool
}

func newRecording() *recording {
	return &recording{seen: map[string]bool{}}
}

// add logs j unless its key is already recorded.
func (rec *recording) add(j job) {
	if !rec.seen[j.key] {
		rec.seen[j.key] = true
		rec.jobs = append(rec.jobs, j)
	}
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
	dry := &Runner{Warmup: r.Warmup, Measure: r.Measure, Seed: r.Seed, Causal: r.Causal, rec: rec}
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

// workers resolves the Runner's pool width for Prefetch.
func (r *Runner) workers() int {
	if r.Parallel > 1 {
		return r.Parallel
	}
	return 1
}

// Prefetch executes every job the named figures need on the harness
// worker pool and fills the Runner's cache. Each job owns a value-copied
// scenario or config, its own seeded RNGs (derived from the seed), a
// private obs registry and, with Causal set, a private profiler — no
// mutable state is shared across jobs — and results are stored back in
// first-request order across the figures. Duplicates across figures and
// keys already cached are skipped before dispatch.
func (r *Runner) Prefetch(figs ...string) {
	all := newRecording()
	for _, fig := range figs {
		for _, j := range r.recordingFor(fig).jobs {
			all.add(j)
		}
	}
	var todo []job
	r.mu.Lock()
	for _, j := range all.jobs {
		if _, ok := r.results[j.key]; !ok {
			todo = append(todo, j)
		}
	}
	r.mu.Unlock()
	results := harness.Map(r.workers(), todo, func(_ int, j job) any { return j.run() })
	for i, j := range todo {
		r.store(j.key, results[i])
	}
}
