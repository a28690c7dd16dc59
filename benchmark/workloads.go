package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"

	"mflow/internal/bench"
	"mflow/internal/causal"
	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/harness"
	"mflow/internal/obs"
	"mflow/internal/overlay"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// Simulated windows. paper-all keeps mflowbench's defaults, which are what
// its users regenerate. The other workloads share a 3 ms warmup and have
// measured windows sized so one rep takes a few seconds on a 2-core
// machine; they are part of the benchmark's definition and stay fixed.
// setupWindow shrinks both windows of a set-up rep to almost nothing, so
// that rep times only the work that does not scale with simulated time.
const (
	paperWarmup    = 3 * sim.Millisecond
	paperMeasure   = 12 * sim.Millisecond
	matrixWarmup   = 3 * sim.Millisecond
	inspectMeasure = 60 * sim.Millisecond
	wireMeasure    = 100 * sim.Millisecond
	chaosMeasure   = 80 * sim.Millisecond
	setupWindow    = sim.Microsecond
)

// shape is what a workload's scenarios have in common: seed, windows and
// whether wire bytes ride the segments.
type shape struct {
	seed            uint64
	warmup, measure sim.Duration
	wire            bool
}

// single is the workload's single-flow 64 KB scenario for one system and
// protocol: the cell the paper's Figs. 4, 8 and 9 read.
func (s shape) single(sys steering.System, proto skb.Proto) overlay.Scenario {
	return overlay.Scenario{
		System: sys, Proto: proto, MsgSize: 65536, WireMode: s.wire,
		Seed: s.seed, Warmup: s.warmup, Measure: s.measure,
	}
}

// A workload is one set of inputs the benchmark runs, built from the seed.
type workload struct {
	name, why string
	// shape gives the workload's scenario shape at a seed, with set-up or
	// full windows.
	shape func(seed uint64, setup bool) shape
	// matrix lists the overlay scenarios of one rep; nil for paper-all,
	// which drives bench.Runner instead.
	matrix func(shape) []overlay.Scenario
	// probed reps attach a causal profiler, a flight recorder and an obs
	// registry to every run.
	probed bool
}

var workloads = []*workload{
	{
		name:  "paper-all",
		why:   "regenerates every paper figure through bench and harness (mflowbench -fig all, 3+12 ms windows): the job users wait for, and the only one with a paper value for every claim",
		shape: windows(paperWarmup, paperMeasure, false),
	},
	{
		name:   "inspect",
		why:    "the mflowinspect path: all systems x TCP/UDP x lossless/burst/random with causal profiler, flight recorder and obs (3+60 ms); the only workload where probes work",
		shape:  windows(matrixWarmup, inspectMeasure, false),
		matrix: faultMatrix,
		probed: true,
	},
	{
		name:   "wire-fabric",
		why:    "real wire bytes on one host, across a 2-host fabric and in 3-to-1 incast (3+100 ms); the only workload where skb arena, encap/decap, payload verify and underlay work",
		shape:  windows(matrixWarmup, wireMeasure, true),
		matrix: wireMatrix,
	},
	{
		name:   "chaos-overload",
		why:    "the receive path recovering (3+80 ms): fault-injected loss, overload pressure and livelock drive retransmits, hole release, AQM, admission drops and polling",
		shape:  windows(matrixWarmup, chaosMeasure, false),
		matrix: chaosOverloadMatrix,
	},
}

func windows(warmup, measure sim.Duration, wire bool) func(uint64, bool) shape {
	return func(seed uint64, setup bool) shape {
		if setup {
			return shape{seed: seed, warmup: setupWindow, measure: setupWindow, wire: wire}
		}
		return shape{seed: seed, warmup: warmup, measure: measure, wire: wire}
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var protos = []skb.Proto{skb.TCP, skb.UDP}

// faultMatrix is every paper system x protocol, lossless and under each
// chaos profile (sorted by name so the order is fixed).
func faultMatrix(s shape) []overlay.Scenario {
	plans := fault.ChaosProfiles()
	var out []overlay.Scenario
	for _, sys := range steering.Systems {
		for _, proto := range protos {
			sc := s.single(sys, proto)
			out = append(out, sc)
			for _, name := range []string{"burst", "random"} {
				sc.Faults = plans[name]
				out = append(out, sc)
			}
		}
	}
	return out
}

// wireMatrix mirrors mflowbench -fig wire in wire mode: MFLOW 3->1 incast
// on a 10 Gbps underlay, two flows across a 2-host fabric, and four
// systems on one host. The multi-host runs cost the most and go first, so
// the pool does not end a rep waiting on one of them.
func wireMatrix(s shape) []overlay.Scenario {
	incast := s.single(steering.MFlow, skb.TCP)
	incast.Flows = 6
	incast.Fabric = &fabric.Config{Hosts: 4, Placement: fabric.PlaceIncast, LinkGbps: 10}
	out := []overlay.Scenario{incast}
	for _, sys := range []steering.System{steering.MFlow, steering.RPS, steering.Vanilla} {
		sc := s.single(sys, skb.TCP)
		sc.Flows = 2
		sc.Fabric = &fabric.Config{Hosts: 2}
		out = append(out, sc)
	}
	for _, sys := range []steering.System{steering.Native, steering.Vanilla, steering.RPS, steering.MFlow} {
		for _, proto := range protos {
			out = append(out, s.single(sys, proto))
		}
	}
	return out
}

// chaosOverloadMatrix is the chaos matrix (lossless references included,
// as mflowbench -fig chaos runs them), the overload pressure matrix at 2x
// offered load, and four receive-livelock points.
func chaosOverloadMatrix(s shape) []overlay.Scenario {
	out := faultMatrix(s)
	for _, sys := range []steering.System{steering.Vanilla, steering.RPS, steering.MFlow} {
		for _, proto := range protos {
			sc := s.single(sys, proto)
			sc.Window, sc.UDPClients = 4096, 6
			sc.Overload = overload.Profiles()["pressure"]
			out = append(out, sc)
		}
	}
	for _, clients := range []int{2, 8} {
		for _, mitigated := range []bool{false, true} {
			sc := s.single(steering.Vanilla, skb.UDP)
			sc.MsgSize, sc.UDPClients = 1500, clients
			sc.Overload = overload.LivelockConfig(mitigated)
			out = append(out, sc)
		}
	}
	return out
}

// repOut is what one rep leaves behind once its clock has stopped: what
// must repeat exactly, what went wrong, and the counts the metrics use.
type repOut struct {
	// prints holds one entry per run, in run order, that a rep with the
	// same seed and windows must reproduce exactly; failures holds why each
	// run is wrong ("" when it is correct).
	prints   []string
	failures []string
	// digest covers everything the rep produced.
	digest   [sha256.Size]byte
	segments uint64
	counts   layerCounts
	paperErr float64
	claims   int
}

// run executes one rep of w and returns the untimed follow-up that checks
// the runs and extracts the metrics. The caller stops its clock between
// the two calls.
func (w *workload) run(s shape, tr *tracer, repID string) func() repOut {
	if w.matrix == nil {
		return paperAllRep(s, tr, repID)
	}
	scs := w.matrix(s)
	outs := harness.Map(harness.DefaultWorkers(), scs, func(i int, sc overlay.Scenario) runOut {
		return runScenario(sc, w.probed, tr, repID, i+1)
	})
	return func() repOut { return summarize(s, scs, outs, tr, repID) }
}

type runOut struct {
	res  *overlay.Result
	prof *causal.Profiler
	err  string
}

// runScenario runs one scenario, reporting a panic as a failed run.
func runScenario(sc overlay.Scenario, probed bool, tr *tracer, parent string, tid int) (out runOut) {
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Sprintf("panic: %v", p)
		}
	}()
	key := "" // the span id; rendering it costs time an untraced rep should not pay
	if tr != nil {
		key = sc.Key()
	}
	if !probed {
		defer tr.begin("overlay.Run", key, parent, tid)()
		out.res = overlay.Run(sc)
		return out
	}
	sc.Obs = obs.New()
	out.prof = causal.NewProfiler()
	defer tr.begin("overlay.RunProbed", key, parent, tid)()
	out.res = overlay.RunProbed(sc, overlay.Probes{Causal: out.prof, Flight: causal.NewFlightRecorder()})
	return out
}

func summarize(s shape, scs []overlay.Scenario, outs []runOut, tr *tracer, repID string) repOut {
	var o repOut
	results := make([]*overlay.Result, len(outs))
	h := sha256.New()
	for i, r := range outs {
		end := tr.begin("check", scs[i].Key(), repID, i+1)
		fail, fp := r.err, ""
		if r.res != nil {
			results[i] = r.res
			fp = r.res.Fingerprint()
			if fail == "" {
				fail = checkRun(r.res, r.prof)
			}
			o.segments += r.res.DeliveredSegments
			o.counts.addResult(r.res, r.prof)
		}
		end()
		o.prints = append(o.prints, fp)
		o.failures = append(o.failures, fail)
		h.Write([]byte(fp))
	}
	h.Sum(o.digest[:0])
	o.paperErr, o.claims = paperErrPct(resultView(scs, results, s.single))
	return o
}

// paperAllRep regenerates every paper figure on a fresh Runner, the way
// mflowbench -fig all -json does, and keeps the artifact bytes.
func paperAllRep(s shape, tr *tracer, repID string) func() repOut {
	r := bench.NewRunner()
	r.Warmup, r.Measure, r.Seed = s.warmup, s.measure, s.seed
	r.Parallel = harness.DefaultWorkers()
	end := tr.begin("bench.Runner.Tables", "all", repID, 0)
	tables, err := r.Tables("all")
	end()
	if err != nil {
		return func() repOut { return repOut{prints: []string{""}, failures: []string{err.Error()}} }
	}
	end = tr.begin("bench.Runner.Artifact", "all", repID, 0)
	a := r.Artifact("all", tables)
	var buf bytes.Buffer
	werr := a.WriteJSON(&buf)
	end()
	return func() repOut {
		defer tr.begin("check", "all", repID, 0)()
		o := artifactOut(a, s)
		o.digest = sha256.Sum256(buf.Bytes())
		if werr != nil {
			o.prints = append(o.prints, "")
			o.failures = append(o.failures, werr.Error())
		}
		st, segs := r.SchedTelemetry()
		o.counts.sched, o.segments = st, segs
		return o
	}
}

// artifactOut turns a paper-all artifact into per-record prints, record
// checks and counts. The gate here is checkRecord plus exact repetition of
// every record.
func artifactOut(a *bench.Artifact, s shape) repOut {
	var o repOut
	for _, rec := range a.Runs {
		b, _ := json.Marshal(rec) // a struct of plain fields always encodes
		o.prints = append(o.prints, string(b))
		o.failures = append(o.failures, checkRecord(rec))
		o.counts.addRecord(rec)
	}
	for _, app := range a.Apps {
		b, _ := json.Marshal(app)
		o.prints = append(o.prints, string(b))
		o.failures = append(o.failures, "")
	}
	o.paperErr, o.claims = paperErrPct(artifactView(a, s.single))
	return o
}

// committedReference is what a full-window paper-all rep at seed 42 must
// reproduce: the committed BENCH_all.json, byte for byte.
func committedReference(path string) (*repOut, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a bench.Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	o := artifactOut(&a, windows(paperWarmup, paperMeasure, false)(a.Seed, false))
	o.digest = sha256.Sum256(data)
	return &o, nil
}

// probeReference runs the workload's MFLOW TCP 64 KB scenario once with a
// causal profiler, for the simulated-time split of workloads whose reps
// carry no probes.
func probeReference(s shape) causalSplit {
	var c causalSplit
	p := causal.NewProfiler()
	res := overlay.RunProbed(s.single(steering.MFlow, skb.TCP), overlay.Probes{Causal: p})
	c.add(res, p)
	return c
}
