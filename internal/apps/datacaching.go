package apps

import (
	"fmt"

	"mflow/internal/metrics"
	"mflow/internal/overlay"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// CachingConfig parameterizes the data-caching (memcached) benchmark:
// closed-loop clients issue GET requests over overlay connections into a
// memcached container (4 threads, 550-byte objects, per the paper's
// configuration) and measure request latency.
type CachingConfig struct {
	// System is the packet-steering configuration under test.
	System steering.System
	// Clients is the number of load-generating client machines (the
	// paper sweeps 1..10); each opens ConnsPerClient connections and
	// keeps Outstanding requests in flight per connection.
	Clients        int
	ConnsPerClient int
	Outstanding    int
	// RequestB / ValueB are the GET request and object sizes (550-byte
	// values per the paper).
	RequestB int
	ValueB   int
	// ServiceTime is memcached's per-request CPU on an app core; Threads
	// is its thread count (app cores used).
	ServiceTime sim.Duration
	Threads     int
	// KernelCores sizes the softirq pool.
	KernelCores int
	// MFlow overrides MFLOW's splitting configuration (see WebConfig).
	MFlow   *overlay.MFlowConfig
	Costs   *overlay.CostModel
	Seed    uint64
	Warmup  sim.Duration
	Measure sim.Duration
}

func (c CachingConfig) withDefaults() CachingConfig {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.ConnsPerClient <= 0 {
		c.ConnsPerClient = 4
	}
	if c.Outstanding <= 0 {
		c.Outstanding = 8
	}
	if c.RequestB <= 0 {
		c.RequestB = 128
	}
	if c.ValueB <= 0 {
		c.ValueB = 550
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 2 * sim.Microsecond
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.KernelCores <= 0 {
		c.KernelCores = 6
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Warmup <= 0 {
		c.Warmup = 4 * sim.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 20 * sim.Millisecond
	}
	return c
}

// CachingResult is the benchmark outcome.
type CachingResult struct {
	Config CachingConfig
	// Latency is the distribution of client-visible request latencies.
	Latency *metrics.Histogram
	// Avg and P99 are the paper's Fig. 13 metrics.
	Avg sim.Duration
	P99 sim.Duration
	// RequestsPerSec is the achieved GET rate.
	RequestsPerSec float64
}

// String renders a one-line summary.
func (r *CachingResult) String() string {
	return fmt.Sprintf("datacaching/%s clients=%d %.0f req/s avg=%v p99=%v",
		r.Config.System, r.Config.Clients, r.RequestsPerSec, r.Avg, r.P99)
}

// RunDataCaching executes the data-caching benchmark.
func RunDataCaching(cfg CachingConfig) *CachingResult {
	cfg = cfg.withDefaults()
	flows := cfg.Clients * cfg.ConnsPerClient
	st := overlay.NewStack(overlay.Scenario{
		System:      cfg.System,
		Proto:       skb.TCP,
		Flows:       flows,
		KernelCores: cfg.KernelCores,
		AppCores:    cfg.Threads,
		SharedQueue: true, // default Docker/VxLAN outer-hash regime
		MFlow:       appMFlow(cfg.MFlow, cfg.KernelCores),
		Costs:       cfg.Costs,
		Seed:        cfg.Seed,
	})
	sched := st.Sched()
	cfgCosts := st.Scenario().Costs

	lat := metrics.NewHistogram()
	measStart := sim.Time(cfg.Warmup)
	measEnd := sim.Time(cfg.Warmup + cfg.Measure)
	var completed uint64

	type pend struct {
		sent     sim.Time
		measured bool
	}
	pending := make([]map[uint64]*pend, flows)
	var issue func(f int)
	for f := 0; f < flows; f++ {
		f := f
		pending[f] = map[uint64]*pend{}
		st.OnMessage(f, func(msgID uint64, at sim.Time) {
			p, ok := pending[f][msgID]
			if !ok {
				return
			}
			delete(pending[f], msgID)
			// memcached thread services the GET, then the 550-byte
			// response crosses back to the client.
			_, end := st.AppCore(f).Exec(cfg.ServiceTime+sim.Duration(txPerByte*float64(cfg.ValueB)), "memcached")
			sched.At(end, func() {
				doneAt := end.Add(cfgCosts.NetDelay)
				sched.At(doneAt, func() {
					if p.measured && doneAt < measEnd.Add(40*sim.Millisecond) {
						lat.Record(int64(doneAt.Sub(p.sent)))
						completed++
					}
					issue(f) // closed loop: next request on this slot
				})
			})
		})
	}
	issue = func(f int) {
		if sched.Now() >= measEnd {
			return
		}
		now := sched.Now()
		id := st.Send(f, cfg.RequestB)
		pending[f][id] = &pend{sent: now, measured: now >= measStart}
	}

	for f := 0; f < flows; f++ {
		f := f
		for k := 0; k < cfg.Outstanding; k++ {
			stagger := sim.Duration(sched.Rand.Float64() * 50_000)
			sched.After(stagger, func() { issue(f) })
		}
	}
	sched.RunUntil(measEnd.Add(40 * sim.Millisecond))

	res := &CachingResult{Config: cfg, Latency: lat}
	res.Avg = sim.Duration(lat.Mean())
	res.P99 = sim.Duration(lat.P99())
	res.RequestsPerSec = float64(completed) / cfg.Measure.Seconds()
	return res
}
