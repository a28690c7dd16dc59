package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"mflow/internal/apps"
	"mflow/internal/overlay"
	"mflow/internal/sim"
)

// ArtifactSchema versions the BENCH_*.json layout; bump it when record
// fields change incompatibly so LoadArtifact can refuse mismatched baselines.
const ArtifactSchema = "mflow-bench/v2"

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

	// Queue depths from the run's observability snapshot: exact
	// time-weighted p99 and true max, over the run from t=0 (warmup
	// included), of the NIC ring and of the backlog with the highest p99.
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
	rec.RingP99, rec.RingMax, _, rec.BacklogP99, rec.BacklogMax = queueStats(res)
	rec.Breakdown = breakdownRecords(res.Breakdown)
	return rec
}

// Artifact assembles the named figure's artifact from the Runner's warm
// cache and the already-rendered tables. Records appear in the figure's
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
	for _, j := range r.recordingFor(fig).jobs {
		// A job not built on this Runner yet runs now rather than leave
		// a hole.
		switch res := r.do(j).(type) {
		case *overlay.Result:
			a.Runs = append(a.Runs, runRecord(j.key, res))
		case *apps.WebResult:
			a.Apps = append(a.Apps, AppRecord{
				Key:    j.key,
				Kind:   "web",
				System: res.Config.System.String(),
				PerSec: res.TotalSuccessPerSec,
			})
		case *apps.CachingResult:
			a.Apps = append(a.Apps, AppRecord{
				Key:     j.key,
				Kind:    "caching",
				System:  res.Config.System.String(),
				Clients: res.Config.Clients,
				PerSec:  res.RequestsPerSec,
				AvgUs:   float64(res.Avg) / 1000,
				P99Us:   float64(res.P99) / 1000,
			})
		}
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

// Diff compares two artifacts exactly and returns one line per
// difference, naming the header field, record or table cell that differs;
// no lines means the artifacts agree. It checks the header (schema, figure,
// seed and both windows), every run and app record by key (present on both
// sides and equal in every field) and every table by ID. A run's causal
// breakdown is compared only when both sides carry one, because an
// unprobed artifact has none.
func Diff(base, cur *Artifact) []string {
	var d []string
	for _, h := range []struct {
		name string
		b, c any
	}{
		{"schema", base.Schema, cur.Schema},
		{"figure", base.Figure, cur.Figure},
		{"seed", base.Seed, cur.Seed},
		{"warmup_ms", base.WarmupMs, cur.WarmupMs},
		{"measure_ms", base.MeasureMs, cur.MeasureMs},
	} {
		if h.b != h.c {
			d = append(d, fmt.Sprintf("%s: %v vs %v", h.name, h.b, h.c))
		}
	}
	d = append(d, diffKeyed(base.Runs, cur.Runs,
		func(rec RunRecord) string { return rec.Key },
		func(rec RunRecord) string { return fmt.Sprintf("run %s [%s]", rec.Name, rec.Key) },
		diffFields[RunRecord])...)
	d = append(d, diffKeyed(base.Apps, cur.Apps,
		func(rec AppRecord) string { return rec.Key },
		func(rec AppRecord) string { return "app " + rec.Key },
		diffFields[AppRecord])...)
	d = append(d, diffKeyed(base.Tables, cur.Tables,
		func(t TableRecord) string { return t.ID },
		func(t TableRecord) string { return "table " + t.ID },
		diffTable)...)
	return d
}

// diffKeyed matches base and cur records by key, reports records present
// on one side only, and compares the matched pairs with diff.
func diffKeyed[T any](base, cur []T, key, label func(T) string, diff func(what string, b, c T) []string) []string {
	inCur := make(map[string]T, len(cur))
	for _, c := range cur {
		inCur[key(c)] = c
	}
	inBase := make(map[string]bool, len(base))
	var d []string
	for _, b := range base {
		inBase[key(b)] = true
		c, ok := inCur[key(b)]
		if !ok {
			d = append(d, label(b)+": missing from current")
			continue
		}
		d = append(d, diff(label(b), b, c)...)
	}
	for _, c := range cur {
		if !inBase[key(c)] {
			d = append(d, label(c)+": not in baseline")
		}
	}
	return d
}

// diffFields reports every field of two records that differs, by its JSON
// name. A Breakdown is compared only when both sides carry one.
func diffFields[T any](what string, b, c T) []string {
	bv, cv := reflect.ValueOf(b), reflect.ValueOf(c)
	var d []string
	for i := 0; i < bv.NumField(); i++ {
		f := bv.Type().Field(i)
		bf, cf := bv.Field(i), cv.Field(i)
		if f.Name == "Breakdown" && (bf.Len() == 0 || cf.Len() == 0) {
			continue
		}
		if !reflect.DeepEqual(bf.Interface(), cf.Interface()) {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			d = append(d, fmt.Sprintf("%s: %s %v vs %v", what, name, bf.Interface(), cf.Interface()))
		}
	}
	return d
}

// diffTable compares two tables with the same ID cell by cell, plus their
// titles and notes.
func diffTable(what string, b, c TableRecord) []string {
	var d []string
	if b.Title != c.Title {
		d = append(d, fmt.Sprintf("%s: title %q vs %q", what, b.Title, c.Title))
	}
	if !reflect.DeepEqual(b.Notes, c.Notes) {
		d = append(d, fmt.Sprintf("%s: notes %q vs %q", what, b.Notes, c.Notes))
	}
	if len(b.Columns) != len(c.Columns) {
		return append(d, fmt.Sprintf("%s: %d columns vs %d", what, len(b.Columns), len(c.Columns)))
	}
	if len(b.Rows) != len(c.Rows) {
		return append(d, fmt.Sprintf("%s: %d rows vs %d", what, len(b.Rows), len(c.Rows)))
	}
	for i, col := range b.Columns {
		if col != c.Columns[i] {
			d = append(d, fmt.Sprintf("%s: column %d %q vs %q", what, i, col, c.Columns[i]))
		}
	}
	for i, row := range b.Rows {
		if len(row) != len(c.Rows[i]) {
			d = append(d, fmt.Sprintf("%s row %d: %d cells vs %d", what, i, len(row), len(c.Rows[i])))
			continue
		}
		for j, cell := range row {
			if cell != c.Rows[i][j] {
				d = append(d, fmt.Sprintf("%s row %d col %s: %q vs %q", what, i, b.Columns[j], cell, c.Rows[i][j]))
			}
		}
	}
	return d
}
