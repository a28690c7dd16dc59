package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mflow/internal/overlay"
	"mflow/internal/sim"
)

// ArtifactSchema versions the BENCH_*.json layout; bump it when record
// fields change incompatibly so Compare can refuse mismatched baselines.
const ArtifactSchema = "mflow-bench/v1"

// Artifact is the machine-readable companion to a figure's text tables:
// one record per scenario run (keyed by the scenario's stable cache key)
// plus the application-benchmark records and the rendered tables. It
// deliberately carries no timestamps, host identifiers or worker counts —
// for a given (figure, seed, windows) the bytes are identical whether the
// harness ran serial or parallel, which is what the golden determinism
// test asserts.
type Artifact struct {
	Schema    string  `json:"schema"`
	Figure    string  `json:"figure"`
	Seed      uint64  `json:"seed"`
	WarmupMs  float64 `json:"warmup_ms"`
	MeasureMs float64 `json:"measure_ms"`
	// Provenance states which engine and configuration produced the runs.
	// It is derived purely from the Runner's configuration — no timestamps
	// or host identifiers — so regenerating with the same settings still
	// yields byte-identical artifacts.
	Provenance string        `json:"provenance,omitempty"`
	Runs       []RunRecord   `json:"runs"`
	Apps       []AppRecord   `json:"apps,omitempty"`
	Tables     []TableRecord `json:"tables"`
}

// RunRecord is one overlay scenario's measured outcome.
type RunRecord struct {
	Key     string `json:"key"`
	Name    string `json:"name"`
	System  string `json:"system"`
	Proto   string `json:"proto"`
	MsgSize int    `json:"msg_size"`
	Flows   int    `json:"flows"`

	Gbps         float64 `json:"gbps"`
	MsgPerSec    float64 `json:"msg_per_sec"`
	LatencyP50Us float64 `json:"latency_p50_us"`
	LatencyP99Us float64 `json:"latency_p99_us"`

	KernelCPUTotal  float64 `json:"kernel_cpu_total"`
	KernelCPUStddev float64 `json:"kernel_cpu_stddev"`
	GROFactor       float64 `json:"gro_factor"`

	OOOSKBs             uint64 `json:"ooo_skbs"`
	DeliveredOutOfOrder uint64 `json:"delivered_ooo"`
	DropsRing           uint64 `json:"drops_ring"`
	DropsSock           uint64 `json:"drops_sock"`
	DropsBacklog        uint64 `json:"drops_backlog"`

	FaultsInjected  uint64 `json:"faults_injected,omitempty"`
	Retransmits     uint64 `json:"retransmits,omitempty"`
	RTOTimeouts     uint64 `json:"rto_timeouts,omitempty"`
	FastRetransmits uint64 `json:"fast_retransmits,omitempty"`
	HolesReleased   uint64 `json:"holes_released,omitempty"`
	StaleReleased   uint64 `json:"stale_released,omitempty"`
	OFOPruned       uint64 `json:"ofo_pruned,omitempty"`

	// Queue depths from the observability snapshot; zero when the run
	// was not observed.
	RingP99    int64 `json:"ring_p99,omitempty"`
	RingMax    int64 `json:"ring_max,omitempty"`
	BacklogP99 int64 `json:"backlog_p99,omitempty"`
	BacklogMax int64 `json:"backlog_max,omitempty"`

	// Breakdown is the causal latency decomposition, present only when the
	// run was probed (Runner.Causal); unprobed artifacts are byte-identical
	// to pre-causal ones.
	Breakdown []BreakdownRecord `json:"breakdown,omitempty"`
}

// AppRecord is one application-benchmark outcome (Figs. 11 and 13).
type AppRecord struct {
	Key     string  `json:"key"`
	Kind    string  `json:"kind"` // "web" | "caching"
	System  string  `json:"system"`
	Clients int     `json:"clients,omitempty"`
	PerSec  float64 `json:"per_sec"`
	AvgUs   float64 `json:"avg_us,omitempty"`
	P99Us   float64 `json:"p99_us,omitempty"`
}

// TableRecord mirrors a rendered Table.
type TableRecord struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func runRecord(key string, res *overlay.Result) RunRecord {
	sc := res.Scenario
	rec := RunRecord{
		Key:     key,
		Name:    sc.Name(),
		System:  sc.System.String(),
		Proto:   sc.Proto.String(),
		MsgSize: sc.MsgSize,
		Flows:   sc.Flows,

		Gbps:      res.Gbps,
		MsgPerSec: res.MsgPerSec,

		KernelCPUTotal:  res.KernelCPUTotal,
		KernelCPUStddev: res.KernelCPUStddev,
		GROFactor:       res.GROFactor,

		OOOSKBs:             res.OOOSKBs,
		DeliveredOutOfOrder: res.DeliveredOutOfOrder,
		DropsRing:           res.DropsRing,
		DropsSock:           res.DropsSock,
		DropsBacklog:        res.DropsBacklog,

		FaultsInjected:  res.FaultsInjected,
		Retransmits:     res.Retransmits,
		RTOTimeouts:     res.RTOTimeouts,
		FastRetransmits: res.FastRetransmits,
		HolesReleased:   res.HolesReleased,
		StaleReleased:   res.StaleReleased,
		OFOPruned:       res.OFOPruned,
	}
	if res.Latency != nil && res.Latency.Count() > 0 {
		rec.LatencyP50Us = float64(res.Latency.Median()) / 1000
		rec.LatencyP99Us = float64(res.Latency.P99()) / 1000
	}
	if res.Obs != nil {
		rec.RingP99, rec.RingMax, _, rec.BacklogP99, rec.BacklogMax = queueStats(res)
	}
	rec.Breakdown = breakdownRecords(res.Breakdown)
	return rec
}

// Artifact assembles the named figure's artifact from the Runner's warm
// caches and the already-rendered tables. Runs appear in the figure's
// recorded order (record.go): first-request order, deduplicated by key —
// the same order a serial build consumed them in, so the encoding is
// independent of worker count.
func (r *Runner) Artifact(fig string, tables []*Table) *Artifact {
	a := &Artifact{
		Schema:    ArtifactSchema,
		Figure:    fig,
		Seed:      r.Seed,
		WarmupMs:  float64(r.Warmup) / float64(sim.Millisecond),
		MeasureMs: float64(r.Measure) / float64(sim.Millisecond),
		Provenance: fmt.Sprintf(
			"mflowbench deterministic DES harness (fast-path engine, typed event heap); fig=%s seed=%d warmup=%gms measure=%gms, overload control and fault injection disabled unless a run's key says otherwise",
			fig, r.Seed,
			float64(r.Warmup)/float64(sim.Millisecond),
			float64(r.Measure)/float64(sim.Millisecond)),
	}
	rec := r.recordingFor(fig)
	for _, run := range rec.runs {
		res, ok := r.cached(run.key)
		if !ok {
			// Not built on this Runner yet: run it now rather than emit
			// a hole.
			res = r.run(run.sc)
		}
		a.Runs = append(a.Runs, runRecord(run.key, res))
	}
	for _, cfg := range rec.web {
		res := r.web(cfg.System)
		a.Apps = append(a.Apps, AppRecord{
			Key:    webKey(res.Config),
			Kind:   "web",
			System: res.Config.System.String(),
			PerSec: res.TotalSuccessPerSec,
		})
	}
	for _, cfg := range rec.caching {
		res := r.caching(cfg.System, cfg.Clients)
		a.Apps = append(a.Apps, AppRecord{
			Key:     cachingKey(res.Config),
			Kind:    "caching",
			System:  res.Config.System.String(),
			Clients: res.Config.Clients,
			PerSec:  res.RequestsPerSec,
			AvgUs:   float64(res.Avg) / 1000,
			P99Us:   float64(res.P99) / 1000,
		})
	}
	for _, t := range tables {
		a.Tables = append(a.Tables, TableRecord{
			ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes,
		})
	}
	return a
}

// WriteJSON emits the artifact as indented JSON. The encoding is fully
// deterministic: struct fields encode in declaration order and slices in
// recorded order.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// LoadArtifact reads a BENCH_*.json file written by WriteJSON.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, a.Schema, ArtifactSchema)
	}
	return &a, nil
}

// Regression is one run whose headline metric fell more than the allowed
// tolerance below the baseline.
type Regression struct {
	Key      string
	Name     string
	Metric   string
	Baseline float64
	Current  float64
	Drop     float64 // relative: (baseline - current) / baseline
}

func (g Regression) String() string {
	return fmt.Sprintf("%s: %s %.3f -> %.3f (-%.1f%%)", g.Name, g.Metric, g.Baseline, g.Current, 100*g.Drop)
}

// Compare flags current runs whose throughput regressed beyond tol
// (relative) against the baseline. Runs are matched by scenario key; keys
// present on only one side are ignored (the matrix changed, not the
// performance). Throughput-class metrics only — counters and latencies
// shift legitimately with scheduling changes, but a goodput collapse is
// what the artifact gate exists to catch.
func Compare(baseline, current *Artifact, tol float64) []Regression {
	base := make(map[string]RunRecord, len(baseline.Runs))
	for _, rec := range baseline.Runs {
		base[rec.Key] = rec
	}
	var out []Regression
	for _, cur := range current.Runs {
		b, ok := base[cur.Key]
		if !ok {
			continue
		}
		metric, bv, cv := "gbps", b.Gbps, cur.Gbps
		if bv == 0 {
			metric, bv, cv = "msg_per_sec", b.MsgPerSec, cur.MsgPerSec
		}
		if bv <= 0 {
			continue
		}
		if drop := (bv - cv) / bv; drop > tol {
			out = append(out, Regression{
				Key: cur.Key, Name: cur.Name, Metric: metric,
				Baseline: bv, Current: cv, Drop: drop,
			})
		}
	}
	baseApps := make(map[string]AppRecord, len(baseline.Apps))
	for _, rec := range baseline.Apps {
		baseApps[rec.Key] = rec
	}
	for _, cur := range current.Apps {
		b, ok := baseApps[cur.Key]
		if !ok || b.PerSec <= 0 {
			continue
		}
		if drop := (b.PerSec - cur.PerSec) / b.PerSec; drop > tol {
			out = append(out, Regression{
				Key: cur.Key, Name: fmt.Sprintf("%s/%s", cur.Kind, cur.System), Metric: "per_sec",
				Baseline: b.PerSec, Current: cur.PerSec, Drop: drop,
			})
		}
	}
	return out
}
