// Package obs is the unified observability layer for the simulated receive
// path: a hierarchically named metric registry (counters and the
// log-bucketed metrics.Histogram behind one interface) and a Perfetto/Chrome
// trace-event exporter. The paper argues entirely through measurements of
// this path — per-core softirq utilization, backlog/ring occupancy,
// per-stage latency (PAPER.md §2, Figs. 2-4) — and this package is how every
// experiment, benchmark and CLI in the repository observes those signals
// through one object.
//
// A Registry is single-goroutine like the simulation itself: one run, one
// scheduler, one registry. Parallel experiments each own a registry.
// All accessors are nil-receiver safe so call sites can thread an optional
// *Registry without branching; a nil registry yields nil metrics, and
// recording on a nil metric is a no-op.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"

	"mflow/internal/metrics"
)

// Counter is a monotonic total (packets seen, drops, IRQs) mirrored into
// the registry.
type Counter struct{ n uint64 }

// Set overwrites the counter's value with an externally accumulated
// monotonic total (e.g. a NIC's Received field) at a snapshot point. Safe
// on a nil counter.
func (c *Counter) Set(v uint64) {
	if c != nil {
		c.n = v
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Registry holds one simulation run's metrics under canonical names. Names
// are hierarchical ("nic/ring" style is fine) and may carry labels, rendered
// canonically as name{k=v,k2=v2} with keys sorted — the same name+labels
// always resolves to the same metric instance.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*metrics.Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*metrics.Histogram),
	}
}

// Name renders the canonical metric name for name plus label key/value
// pairs: name{k=v,k2=v2}, label keys sorted. With no labels it is just name.
func Name(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter for name+labels.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	full := Name(name, kv...)
	c := r.counters[full]
	if c == nil {
		c = &Counter{}
		r.counters[full] = c
	}
	return c
}

// Histogram returns (creating if needed) the histogram for name+labels.
// Returns nil on a nil registry (metrics.Histogram recording is nil-safe).
func (r *Registry) Histogram(name string, kv ...string) *metrics.Histogram {
	if r == nil {
		return nil
	}
	full := Name(name, kv...)
	h := r.hists[full]
	if h == nil {
		h = metrics.NewHistogram()
		r.hists[full] = h
	}
	return h
}

// GapTo returns a recorder for stage_gap{from,to} histograms with the "to"
// side fixed, caching the per-"from" histogram lookup so hot paths pay one
// map probe on a small local map instead of re-rendering the canonical name
// per packet. On a nil registry the recorder is a no-op.
func (r *Registry) GapTo(to string) func(from string, v int64) {
	if r == nil {
		return func(string, int64) {}
	}
	cache := make(map[string]*metrics.Histogram)
	return func(from string, v int64) {
		h := cache[from]
		if h == nil {
			h = r.Histogram("stage_gap", "from", from, "to", to)
			cache[from] = h
		}
		h.Record(v)
	}
}

// Metric is one metric's snapshotted state. Counters carry Value;
// histograms carry Count/Sum/Mean and the distribution summary.
type Metric struct {
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Min   int64   `json:"min,omitempty"`
	P50   int64   `json:"p50,omitempty"`
	P99   int64   `json:"p99,omitempty"`
	Max   int64   `json:"max,omitempty"`
}

// Snapshot is a point-in-time view of every metric in a registry, keyed by
// canonical name.
type Snapshot map[string]Metric

// Snapshot captures the registry's current state. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	s := make(Snapshot, len(r.counters)+len(r.hists))
	for name, c := range r.counters {
		s[name] = Metric{Kind: "counter", Value: float64(c.Value())}
	}
	for name, h := range r.hists {
		s[name] = Metric{
			Kind:  "histogram",
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			P50:   h.Median(),
			P99:   h.P99(),
			Max:   h.Max(),
		}
	}
	return s
}

// Diff returns the change from prev to s: counter values and histogram
// counts/sums subtract (histogram means are recomputed over the window);
// histogram quantiles keep s's (cumulative) values, since the
// log-bucketed histogram cannot reconstruct window-local percentiles.
// Metrics absent from prev are taken whole; metrics absent from s are
// dropped.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for name, m := range s {
		p, ok := prev[name]
		if ok {
			switch m.Kind {
			case "counter":
				m.Value -= p.Value
			case "histogram":
				m.Count -= p.Count
				m.Sum -= p.Sum
				if m.Count > 0 {
					m.Mean = m.Sum / float64(m.Count)
				} else {
					m.Mean = 0
				}
			}
		}
		out[name] = m
	}
	return out
}

// Names returns the snapshot's metric names, sorted.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s))
	for name := range s {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteJSON renders the snapshot as indented JSON. encoding/json sorts map
// keys, so the output is deterministic for a deterministic run.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
