// Package apps implements the paper's two application-level workloads on
// top of the simulated overlay stack: a CloudSuite-style Web Serving
// benchmark (an nginx/Elgg web tier backed by memcached and mysql
// containers, driven by closed-loop users issuing typed operations) and a
// CloudSuite-style Data Caching benchmark (a memcached server under GET
// load from 1-10 clients). Both measure how the receive-path steering
// system (vanilla / FALCON / MFLOW) changes application-visible latency and
// success rates (paper Figs. 11 and 13).
package apps

import (
	"fmt"

	"mflow/internal/metrics"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// WebOp is one operation type of the web-serving mix. An operation is a
// user request to the web tier, which consults the cache tier and (for
// heavier ops) the database tier — both living in containers reached over
// the same overlay network — before responding to the user.
type WebOp struct {
	Name string
	// RequestB is the user→web request size; CacheB and DBB are the
	// response sizes the web tier pulls from memcached and mysql (0
	// skips that tier); ResponseB is the page returned to the user.
	RequestB  int
	CacheB    int
	DBB       int
	ResponseB int
	// ServerCost is the web tier's CPU per operation (PHP rendering).
	ServerCost sim.Duration
	// TargetTime is the benchmark's target processing time; time beyond
	// it is reported as "delay time". Deadline marks an operation as
	// unsuccessful (timeout) for the success-rate metric.
	TargetTime sim.Duration
	Deadline   sim.Duration
}

// DefaultWebOps mirrors the CloudSuite Web Serving operation mix (login,
// browse, chat, update, ...) with sizes scaled to the Elgg pages the
// benchmark serves.
func DefaultWebOps() []WebOp {
	return []WebOp{
		{Name: "BrowseToElgg", RequestB: 512, CacheB: 24576, DBB: 0, ResponseB: 49152, ServerCost: 8 * sim.Microsecond, TargetTime: 1500 * sim.Microsecond, Deadline: 6 * sim.Millisecond},
		{Name: "Login", RequestB: 1024, CacheB: 8192, DBB: 16384, ResponseB: 32768, ServerCost: 11 * sim.Microsecond, TargetTime: 2 * sim.Millisecond, Deadline: 6 * sim.Millisecond},
		{Name: "CheckWire", RequestB: 512, CacheB: 16384, DBB: 0, ResponseB: 24576, ServerCost: 6 * sim.Microsecond, TargetTime: 1500 * sim.Microsecond, Deadline: 6 * sim.Millisecond},
		{Name: "PostWire", RequestB: 2048, CacheB: 4096, DBB: 24576, ResponseB: 16384, ServerCost: 10 * sim.Microsecond, TargetTime: 2 * sim.Millisecond, Deadline: 6 * sim.Millisecond},
		{Name: "SendChat", RequestB: 1024, CacheB: 8192, DBB: 8192, ResponseB: 8192, ServerCost: 7 * sim.Microsecond, TargetTime: 1500 * sim.Microsecond, Deadline: 6 * sim.Millisecond},
		{Name: "UpdateActivity", RequestB: 2048, CacheB: 16384, DBB: 32768, ResponseB: 24576, ServerCost: 12 * sim.Microsecond, TargetTime: 2500 * sim.Microsecond, Deadline: 8 * sim.Millisecond},
	}
}

// WebConfig parameterizes a web-serving run.
type WebConfig struct {
	// System is the packet-steering configuration under test.
	System steering.System
	// Users is the closed-loop user population (the paper runs 200).
	Users int
	// ThinkTime is the mean exponential think time between a user's
	// operations.
	ThinkTime sim.Duration
	// UserFlows / CacheFlows / DBFlows are the connection counts from
	// each tier into the web host (requests and tier responses traverse
	// the web host's overlay receive path).
	UserFlows  int
	CacheFlows int
	DBFlows    int
	// KernelCores / AppCores size the web host; the web tier's
	// application threads compete for the app cores.
	KernelCores int
	AppCores    int
	// Ops overrides the operation mix (nil = DefaultWebOps).
	Ops []WebOp
	// MFlow overrides MFLOW's splitting configuration. The default uses
	// every kernel core but the dispatcher as a splitting core with
	// single-stage branches — the many-small-flows regime wants breadth,
	// not the elephant-tuned pipelined pairs.
	MFlow *overlay.MFlowConfig
	// Costs overrides the cost table; Seed fixes the run.
	Costs *overlay.CostModel
	Seed  uint64
	// Warmup and Measure delimit the measured window.
	Warmup  sim.Duration
	Measure sim.Duration
}

func (c WebConfig) withDefaults() WebConfig {
	if c.Users <= 0 {
		c.Users = 400
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = 500 * sim.Microsecond
	}
	if c.UserFlows <= 0 {
		c.UserFlows = 12
	}
	if c.CacheFlows <= 0 {
		c.CacheFlows = 2
	}
	if c.DBFlows <= 0 {
		c.DBFlows = 2
	}
	if c.KernelCores <= 0 {
		c.KernelCores = 6
	}
	if c.AppCores <= 0 {
		c.AppCores = 4
	}
	if c.Ops == nil {
		c.Ops = DefaultWebOps()
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Warmup <= 0 {
		c.Warmup = 5 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 30 * sim.Millisecond
	}
	return c
}

// appMFlow picks the application-regime MFLOW configuration: breadth-first
// splitting over every kernel core but the dispatcher, single-stage
// branches (no pipelined pairs), as suits many concurrent smaller flows.
func appMFlow(override *overlay.MFlowConfig, kernelCores int) overlay.MFlowConfig {
	if override != nil {
		return *override
	}
	n := kernelCores - 1
	if n < 2 {
		n = 2
	}
	return overlay.MFlowConfig{SplitCores: n, FullPath: true}
}

// cacheServiceTime / dbServiceTime model the remote tiers' own service
// latency (lookup / query execution) before their responses hit the wire.
const (
	cacheServiceTime = 12 * sim.Microsecond
	dbServiceTime    = 120 * sim.Microsecond
	txPerByte        = 0.02 // web-tier transmit cost, ns per response byte
)

// WebOpResult aggregates one operation type's outcome.
type WebOpResult struct {
	Name string
	// Issued / Completed / Successful count operations started in the
	// measured window (successful = completed within the op deadline).
	Issued     uint64
	Completed  uint64
	Successful uint64
	// SuccessPerSec is the paper's "success operation rate".
	SuccessPerSec float64
	// AvgResponse and AvgDelay are the mean response time and the mean
	// time beyond the op's target (Fig. 11b/11c).
	AvgResponse sim.Duration
	AvgDelay    sim.Duration
	// Response is the full response-time distribution.
	Response *metrics.Histogram
}

// WebResult is a full web-serving run outcome.
type WebResult struct {
	Config             WebConfig
	Ops                []WebOpResult
	TotalSuccessPerSec float64
}

// String renders a one-line summary.
func (r *WebResult) String() string {
	return fmt.Sprintf("webserving/%s users=%d success=%.0f op/s",
		r.Config.System, r.Config.Users, r.TotalSuccessPerSec)
}

// opState tracks one in-flight operation through its tier hops.
type opState struct {
	op       *WebOp
	user     int
	started  sim.Time
	measured bool
}

// RunWebServing executes the web-serving benchmark against the given
// steering system and reports per-operation success rates and latencies.
func RunWebServing(cfg WebConfig) *WebResult {
	cfg = cfg.withDefaults()
	flows := cfg.UserFlows + cfg.CacheFlows + cfg.DBFlows
	st := overlay.NewStack(overlay.Scenario{
		System:      cfg.System,
		Proto:       skb.TCP,
		Flows:       flows,
		KernelCores: cfg.KernelCores,
		AppCores:    cfg.AppCores,
		SharedQueue: true, // default Docker/VxLAN outer-hash regime
		MFlow:       appMFlow(cfg.MFlow, cfg.KernelCores),
		Costs:       cfg.Costs,
		Seed:        cfg.Seed,
	})
	sched := st.Sched()
	rnd := sched.Rand

	type key struct {
		flow  int
		msgID uint64
	}
	waiting := map[key]func(at sim.Time){}
	expect := func(flow int, msgID uint64, fn func(at sim.Time)) {
		waiting[key{flow, msgID}] = fn
	}
	for f := 0; f < flows; f++ {
		f := f
		st.OnMessage(f, func(msgID uint64, at sim.Time) {
			k := key{f, msgID}
			if fn, ok := waiting[k]; ok {
				delete(waiting, k)
				fn(at)
			}
		})
	}

	stats := make([]WebOpResult, len(cfg.Ops))
	for i := range stats {
		stats[i] = WebOpResult{Name: cfg.Ops[i].Name, Response: metrics.NewHistogram()}
	}
	delaySum := make([]float64, len(cfg.Ops))

	measStart := sim.Time(cfg.Warmup)
	measEnd := sim.Time(cfg.Warmup + cfg.Measure)
	opIdx := func(u, n int) int { return (u + n) % len(cfg.Ops) }

	var startOp func(u, n int)
	finish := func(os *opState, idx int, at sim.Time) {
		if !os.measured {
			return
		}
		resp := at.Sub(os.started)
		stats[idx].Completed++
		stats[idx].Response.Record(int64(resp))
		if resp <= os.op.Deadline {
			stats[idx].Successful++
		}
		if d := resp - os.op.TargetTime; d > 0 {
			delaySum[idx] += float64(d)
		}
	}

	startOp = func(u, n int) {
		if sched.Now() >= measEnd {
			return
		}
		idx := opIdx(u, n)
		op := &cfg.Ops[idx]
		os := &opState{op: op, user: u, started: sched.Now()}
		os.measured = sched.Now() >= measStart && sched.Now() < measEnd
		if os.measured {
			stats[idx].Issued++
		}
		next := func() {
			think := sim.Duration(float64(cfg.ThinkTime) * rnd.ExpFloat64())
			sched.After(think, func() { startOp(u, n+1) })
		}

		uf := u % cfg.UserFlows
		// 1. The user's request traverses the overlay into the web tier.
		reqID := st.Send(uf, op.RequestB)
		expect(uf, reqID, func(sim.Time) {
			// 2. Web tier burns half its CPU then pulls from the cache
			// tier: the cache's response travels the overlay back in.
			app := st.AppCore(uf)
			_, half := app.Exec(op.ServerCost/2, "web-app")
			sched.At(half, func() {
				cf := cfg.UserFlows + (u % cfg.CacheFlows)
				sched.After(st.Scenario().Costs.NetDelay+cacheServiceTime, func() {
					cID := st.Send(cf, op.CacheB)
					expect(cf, cID, func(sim.Time) {
						afterTiers := func() {
							// 4. Compose and transmit the page.
							tx := op.ServerCost/2 + sim.Duration(txPerByte*float64(op.ResponseB))
							_, end := app.Exec(tx, "web-app")
							sched.At(end, func() {
								done := end.Add(st.Scenario().Costs.NetDelay)
								sched.At(done, func() { finish(os, idx, done); next() })
							})
						}
						if op.DBB > 0 {
							// 3. Heavier ops also query the database tier.
							df := cfg.UserFlows + cfg.CacheFlows + (u % cfg.DBFlows)
							sched.After(st.Scenario().Costs.NetDelay+dbServiceTime, func() {
								dID := st.Send(df, op.DBB)
								expect(df, dID, func(sim.Time) { afterTiers() })
							})
						} else {
							afterTiers()
						}
					})
				})
			})
		})
	}

	for u := 0; u < cfg.Users; u++ {
		u := u
		stagger := sim.Duration(rnd.Float64() * float64(cfg.ThinkTime))
		sched.After(stagger, func() { startOp(u, 0) })
	}

	// Let in-flight operations finish after the window closes.
	sched.RunUntil(measEnd.Add(60 * sim.Millisecond))

	res := &WebResult{Config: cfg}
	window := (cfg.Measure).Seconds()
	for i := range stats {
		s := stats[i]
		s.SuccessPerSec = float64(s.Successful) / window
		if s.Completed > 0 {
			s.AvgResponse = sim.Duration(s.Response.Mean())
			s.AvgDelay = sim.Duration(delaySum[i] / float64(s.Completed))
		}
		res.Ops = append(res.Ops, s)
		res.TotalSuccessPerSec += s.SuccessPerSec
	}
	return res
}
