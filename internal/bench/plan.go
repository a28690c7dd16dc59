package bench

import (
	"mflow/internal/apps"
	"mflow/internal/fault"
	"mflow/internal/harness"
	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// A plan enumerates every run a figure performs: the overlay scenario
// matrix plus the application-benchmark jobs (Figs. 11/13). Prefetch
// executes a plan on the harness worker pool before the figure is
// formatted, so the figure builder finds a warm cache and does pure
// serial formatting — the parallel path's output is byte-identical to
// the serial one.
//
// Plans mirror the loops in figures.go/ablations.go/extensions.go/
// chaos.go through the shared matrix variables; TestPlansCoverFigures
// asserts, for every figure, that the plan's key set equals the key set
// the figure actually consumed — a scenario added to a figure without
// its plan (or vice versa) fails the build's tests, not silently
// degrades to serial execution.
type plan struct {
	// runs are the overlay scenarios; observed entries additionally
	// require an obs registry even on a non-observing Runner (Queues).
	runs []plannedRun
	// web / caching are the application-benchmark jobs.
	web     []steering.System
	caching []cachingJob
}

type plannedRun struct {
	sc       overlay.Scenario
	observed bool
}

type cachingJob struct {
	sys     steering.System
	clients int
}

func (p *plan) add(scs ...overlay.Scenario) {
	for _, sc := range scs {
		p.runs = append(p.runs, plannedRun{sc: sc})
	}
}

func (p *plan) addObserved(scs ...overlay.Scenario) {
	for _, sc := range scs {
		p.runs = append(p.runs, plannedRun{sc: sc, observed: true})
	}
}

// merge appends q's jobs to p.
func (p *plan) merge(q plan) {
	p.runs = append(p.runs, q.runs...)
	p.web = append(p.web, q.web...)
	p.caching = append(p.caching, q.caching...)
}

// sizeSweep is the size×system×protocol matrix of Figs. 4, 8 and 9.
func sizeSweep(systems []steering.System) []overlay.Scenario {
	var out []overlay.Scenario
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		for _, size := range MsgSizes {
			for _, s := range systems {
				out = append(out, overlay.Scenario{System: s, Proto: proto, MsgSize: size})
			}
		}
	}
	return out
}

// planFor returns the named figure's plan. Unknown figures yield an
// empty plan — Tables will reject the name anyway.
func planFor(fig string) plan {
	var p plan
	switch fig {
	case "4":
		p.add(sizeSweep(fig4Systems)...)
	case "7":
		for _, b := range fig7Batches {
			p.add(overlay.Scenario{
				System: steering.MFlow, Proto: skb.TCP, MsgSize: 65536,
				MFlow: overlay.MFlowConfig{BatchSize: b},
			})
		}
	case "8", "9":
		p.add(sizeSweep(steering.Systems)...)
	case "10":
		for _, size := range fig10Sizes {
			for _, n := range fig10Flows {
				for _, s := range fig10Systems {
					p.add(fig10Scenario(s, size, n))
				}
			}
		}
	case "11":
		p.web = append(p.web, appSystems...)
	case "12":
		for _, s := range fig12Systems {
			p.add(fig10Scenario(s, 65536, 10))
		}
	case "13":
		for _, n := range fig13Clients {
			for _, s := range appSystems {
				p.caching = append(p.caching, cachingJob{sys: s, clients: n})
			}
		}
	case "queues":
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, s := range steering.Systems {
				p.addObserved(overlay.Scenario{System: s, Proto: proto, MsgSize: 65536})
			}
		}
	case "ablations":
		// AblationReassembly + AblationIRQSplit (TCP).
		p.add(mflowScenario(skb.TCP, overlay.MFlowConfig{}))
		p.add(mflowScenario(skb.TCP, overlay.MFlowConfig{PerPacketReorder: true}))
		p.add(mflowScenario(skb.TCP, overlay.MFlowConfig{FlowSplitOnly: true}))
		// AblationLateMerge (UDP, equal core budget).
		p.add(mflowScenario(skb.UDP, overlay.MFlowConfig{LateMerge: true, SplitCores: 3}))
		p.add(mflowScenario(skb.UDP, overlay.MFlowConfig{EarlyMerge: true, SplitCores: 2}))
		// AblationSplitCores.
		for _, n := range ablationSplitCores {
			p.add(mflowScenario(skb.UDP, overlay.MFlowConfig{SplitCores: n}))
		}
		// AblationCompletion.
		for _, n := range ablationCompletion {
			p.add(completionScenario(n))
		}
	case "extensions":
		for _, sys := range extSlimSystems {
			for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
				p.add(overlay.Scenario{System: sys, Proto: proto, MsgSize: 65536})
			}
		}
		for _, n := range extCopyThreads {
			p.add(copyThreadsScenario(n))
		}
		p.add(extAutoScenarios...)
		for _, sc := range extTXScenarios {
			p.add(sc)
			tx := sc
			tx.ModelTX = true
			p.add(tx)
		}
	case "chaos":
		profiles := fault.ChaosProfiles()
		names := chaosNames(profiles)
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, sys := range steering.Systems {
				p.add(chaosScenario(sys, proto, nil))
				for _, name := range names {
					p.add(chaosScenario(sys, proto, profiles[name]))
				}
			}
		}
	case "overload":
		for _, n := range overloadClients {
			p.addObserved(livelockScenario(n, false))
			p.addObserved(livelockScenario(n, true))
		}
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, sys := range overloadSystems {
				p.add(pressureScenario(sys, proto))
			}
		}
	case "wire":
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, sys := range wireSystems {
				p.add(wireScenario(sys, proto, false))
				p.add(wireScenario(sys, proto, true))
			}
		}
		for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
			p.add(wireFabricScenario(sys))
		}
	case "fabric":
		for _, n := range fabricHosts {
			for _, sys := range fabricSystems {
				p.add(fabricScaleScenario(sys, n))
			}
		}
		for _, n := range fabricIncastHosts {
			p.add(fabricIncastScenario(n))
		}
	case "all":
		// All() runs figures in paper order; chaos, overload, fabric and
		// wire are separate (their scenarios carry fault plans / overload
		// configs / multi-host fabrics / wire bytes, so the committed
		// all-figure artifact stays disabled-path pure).
		for _, sub := range []string{"4", "7", "8", "9", "10", "11", "12", "13", "queues", "ablations", "extensions"} {
			p.merge(planFor(sub))
		}
	}
	return p
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
// submission order. Keys already cached and duplicates across figures are
// skipped before dispatch.
func (r *Runner) Prefetch(figs ...string) {
	type outcome struct {
		key      string
		observed bool
		res      *overlay.Result
		web      *apps.WebResult
		caching  *apps.CachingResult
	}
	type scJob struct {
		key      string
		sc       overlay.Scenario
		observed bool
	}

	var scJobs []scJob
	index := map[string]int{}
	var webJobs []steering.System
	var cachingJobs []cachingJob
	seenApp := map[string]bool{}

	for _, fig := range figs {
		p := planFor(fig)
		for _, pr := range p.runs {
			sc := r.normalize(pr.sc)
			key := sc.Key()
			if i, ok := index[key]; ok {
				// The same scenario may appear observed in one figure and
				// plain in another; the stronger requirement wins.
				if pr.observed {
					scJobs[i].observed = true
				}
				continue
			}
			if res, ok := r.cached(key); ok && (res.Obs != nil || !pr.observed) {
				continue
			}
			index[key] = len(scJobs)
			scJobs = append(scJobs, scJob{key: key, sc: sc, observed: pr.observed})
		}
		for _, sys := range p.web {
			key := webKey(r.webConfig(sys))
			r.mu.Lock()
			_, have := r.webs[key]
			r.mu.Unlock()
			if have || seenApp[key] {
				continue
			}
			seenApp[key] = true
			webJobs = append(webJobs, sys)
		}
		for _, cj := range p.caching {
			key := cachingKey(r.cachingConfig(cj.sys, cj.clients))
			r.mu.Lock()
			_, have := r.cachegs[key]
			r.mu.Unlock()
			if have || seenApp[key] {
				continue
			}
			seenApp[key] = true
			cachingJobs = append(cachingJobs, cj)
		}
	}

	var jobs []harness.Job[outcome]
	for _, j := range scJobs {
		j := j
		jobs = append(jobs, harness.Job[outcome]{Name: j.key, Run: func() outcome {
			sc := j.sc
			if r.Observe || j.observed {
				sc.Obs = obs.New() // private registry per job
			}
			return outcome{key: j.key, observed: j.observed, res: overlay.RunProbed(sc, r.probes())}
		}})
	}
	for _, sys := range webJobs {
		cfg := r.webConfig(sys)
		key := webKey(cfg)
		jobs = append(jobs, harness.Job[outcome]{Name: key, Run: func() outcome {
			return outcome{key: key, web: apps.RunWebServing(cfg)}
		}})
	}
	for _, cj := range cachingJobs {
		cfg := r.cachingConfig(cj.sys, cj.clients)
		key := cachingKey(cfg)
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
