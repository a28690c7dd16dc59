package overlay

import (
	"bytes"
	"testing"

	"mflow/internal/causal"
	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/harness"
	"mflow/internal/obs"
	"mflow/internal/pcap"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// fabricScenario is one cell of the multi-host matrix: short windows (the
// properties are invariants and bit-equality, not statistical stability),
// one flow per host pair, and an obs registry so fingerprints cover the
// fabric counters too.
func fabricScenario(sys steering.System, proto skb.Proto, hosts int) Scenario {
	return Scenario{
		System: sys, Proto: proto, MsgSize: 65536,
		Flows:  hosts,
		Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
		Seed:   42,
		Obs:    obs.New(),
		Fabric: &fabric.Config{Hosts: hosts},
	}
}

// checkFabricConservation asserts the run's frame-accounting invariants:
// every frame put on the underlay is delivered, dropped, or still in
// flight; every frame offered to a NIC is accepted or dropped at a counted
// point; and TCP's in-order contract holds at every socket.
func checkFabricConservation(t *testing.T, label string, sc Scenario, res *Result) {
	t.Helper()
	if res.UnderlaySent == 0 {
		t.Errorf("%s: no frames crossed the underlay", label)
	}
	lhs := res.UnderlaySent + uint64(res.UnderlayInFlightStart)
	rhs := res.UnderlayDelivered + res.UnderlayDrops + uint64(res.UnderlayInFlightEnd)
	if lhs != rhs {
		t.Errorf("%s: underlay conservation broken: sent=%d +inflight0=%d != delivered=%d +drops=%d +inflight1=%d",
			label, res.UnderlaySent, res.UnderlayInFlightStart,
			res.UnderlayDelivered, res.UnderlayDrops, res.UnderlayInFlightEnd)
	}
	if res.OfferedFrames != res.AcceptedFrames+res.DropsRing+res.DropsAdmission {
		t.Errorf("%s: NIC conservation broken: offered=%d accepted=%d ring=%d admission=%d",
			label, res.OfferedFrames, res.AcceptedFrames, res.DropsRing, res.DropsAdmission)
	}
	if sc.Proto == skb.TCP && res.DeliveredOutOfOrder != 0 {
		t.Errorf("%s: %d segments delivered out of order to TCP sockets", label, res.DeliveredOutOfOrder)
	}
	if res.Gbps <= 0 {
		t.Errorf("%s: no goodput (%.3f Gbps)", label, res.Gbps)
	}
	if isOverlay(sc.System, sc.Proto) {
		if res.FDBLearned == 0 {
			t.Errorf("%s: overlay run learned no FDB entries", label)
		}
		if res.FDBFloods == 0 {
			t.Errorf("%s: overlay run never flooded (flood-then-learn unobservable)", label)
		}
	}
}

// TestFabricConservationMatrix sweeps steering systems × protocols × host
// counts through the parallel harness (the -race CI job runs it on 8
// workers): frame conservation and per-flow ordering must hold in every
// cell.
func TestFabricConservationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fabric matrix")
	}
	type cell struct {
		sys   steering.System
		proto skb.Proto
		hosts int
	}
	var cells []cell
	for _, sys := range []steering.System{steering.Native, steering.Vanilla, steering.RPS, steering.FalconFunc, steering.MFlow} {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, hosts := range []int{2, 3, 4} {
				cells = append(cells, cell{sys, proto, hosts})
			}
		}
	}
	results := harness.Map(8, cells, func(_ int, c cell) *Result {
		return Run(fabricScenario(c.sys, c.proto, c.hosts))
	})
	for i, c := range cells {
		label := c.sys.String() + "/" + c.proto.String()
		sc := fabricScenario(c.sys, c.proto, c.hosts)
		checkFabricConservation(t, label, sc, results[i])
	}
}

// TestFabricIncastConservation covers the N→1 placement: every sender
// converges on host 0's downlink, which must tail-drop (the incast signal)
// without breaking conservation or TCP ordering.
func TestFabricIncastConservation(t *testing.T) {
	sc := fabricScenario(steering.MFlow, skb.TCP, 4)
	sc.Flows = 6
	sc.Fabric = &fabric.Config{
		Hosts:     4,
		Placement: fabric.PlaceIncast,
		LinkGbps:  10, // tighten the receiver bottleneck
	}
	res := Run(sc)
	checkFabricConservation(t, "incast", sc, res)
	if res.UnderlayDrops == 0 {
		t.Error("6→1 incast over 10 Gbps links never dropped in the underlay")
	}
}

// TestFabricDeterminism runs fabric cells twice serially and once through
// the 8-worker harness: all three fingerprints must be bit-identical.
func TestFabricDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fabric matrix three times")
	}
	type cell struct {
		sys   steering.System
		proto skb.Proto
		hosts int
	}
	var cells []cell
	for _, sys := range []steering.System{steering.RPS, steering.MFlow} {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			for _, hosts := range []int{2, 3} {
				cells = append(cells, cell{sys, proto, hosts})
			}
		}
	}
	first := make([]string, len(cells))
	for i, c := range cells {
		first[i] = Run(fabricScenario(c.sys, c.proto, c.hosts)).Fingerprint()
	}
	for i, c := range cells {
		if fp := Run(fabricScenario(c.sys, c.proto, c.hosts)).Fingerprint(); fp != first[i] {
			t.Errorf("%s/%s/%d hosts: second serial run diverged:\n--- first ---\n%s\n--- second ---\n%s",
				c.sys, c.proto, c.hosts, first[i], fp)
		}
	}
	parallel := harness.Map(8, cells, func(_ int, c cell) string {
		return Run(fabricScenario(c.sys, c.proto, c.hosts)).Fingerprint()
	})
	for i, c := range cells {
		if parallel[i] != first[i] {
			t.Errorf("%s/%s/%d hosts: harness run diverged from serial",
				c.sys, c.proto, c.hosts)
		}
	}
}

// TestFabricProbedMatchesUnprobed extends the probe-purity contract to
// fabric runs: attaching the causal profiler and the flight recorder must
// not change a multi-host run's measured results.
func TestFabricProbedMatchesUnprobed(t *testing.T) {
	for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
		plain := Run(fabricScenario(steering.MFlow, proto, 3)).Fingerprint()
		probed := RunProbed(fabricScenario(steering.MFlow, proto, 3), Probes{
			Causal: causal.NewProfiler(),
			Flight: causal.NewFlightRecorder(),
		}).Fingerprint()
		if plain != probed {
			t.Errorf("%s: probes perturbed the fabric run:\n--- plain ---\n%s\n--- probed ---\n%s",
				proto, plain, probed)
		}
	}
}

// TestFabricKeyPurity pins the probe-purity contract on scenario identity:
// a nil Fabric and a disabled (zero) config mint the pre-fabric key
// byte-for-byte, and runs are bit-identical; an enabled config changes the
// key.
func TestFabricKeyPurity(t *testing.T) {
	base := determinismScenario(steering.MFlow, skb.TCP)
	nilKey := base.Key()
	zero := base
	zero.Fabric = &fabric.Config{}
	if zero.Key() != nilKey {
		t.Errorf("disabled fabric config changed the scenario key:\nnil:  %s\nzero: %s", nilKey, zero.Key())
	}
	for _, bad := range []string{"Fabric", "fabric"} {
		if containsStr(nilKey, bad) {
			t.Errorf("nil-fabric key mentions %q: %s", bad, nilKey)
		}
	}
	a := Run(determinismScenario(steering.MFlow, skb.TCP)).Fingerprint()
	z := determinismScenario(steering.MFlow, skb.TCP)
	z.Fabric = &fabric.Config{}
	if b := Run(z).Fingerprint(); a != b {
		t.Error("disabled fabric config perturbed a single-host run")
	}
	on := base
	on.Fabric = &fabric.Config{Hosts: 2}
	if on.Key() == nilKey {
		t.Error("enabled fabric config did not change the scenario key")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFabricUnderFaultProfiles rides the chaos fault profiles on a fabric
// run: injected wire loss at the receive edge stacks on underlay dynamics,
// and conservation plus TCP ordering must still hold.
func TestFabricUnderFaultProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every chaos profile on the fabric")
	}
	for name, plan := range fault.ChaosProfiles() {
		sc := fabricScenario(steering.MFlow, skb.TCP, 3)
		sc.Faults = plan
		res := Run(sc)
		lhs := res.UnderlaySent + uint64(res.UnderlayInFlightStart)
		rhs := res.UnderlayDelivered + res.UnderlayDrops + uint64(res.UnderlayInFlightEnd)
		if lhs != rhs {
			t.Errorf("%s: underlay conservation broken under faults", name)
		}
		if res.DeliveredOutOfOrder != 0 {
			t.Errorf("%s: %d out-of-order deliveries reached TCP sockets", name, res.DeliveredOutOfOrder)
		}
		if res.Gbps <= 0 {
			t.Errorf("%s: fabric run starved under faults", name)
		}
	}
}

// TestFabricFDBAging forces the VTEP FDB through the full
// flood→learn→age→flood cycle with an ageing horizon shorter than the
// run.
func TestFabricFDBAging(t *testing.T) {
	sc := fabricScenario(steering.MFlow, skb.TCP, 2)
	sc.Fabric = &fabric.Config{Hosts: 2, FDBMaxAge: 200 * sim.Microsecond}
	res := Run(sc)
	if res.FDBAged == 0 {
		t.Fatalf("no FDB entries aged with MaxAge=200µs over a 3ms run (learned=%d floods=%d)",
			res.FDBLearned, res.FDBAged)
	}
	if res.FDBFloods <= 1 {
		t.Errorf("aged entries should re-flood: floods=%d", res.FDBFloods)
	}
}

// FuzzFabric feeds random host counts, link parameters and flow placements
// through a fabric run and checks the conservation and ordering
// invariants. The seed corpus covers both placements, both protocols and
// the tightest link queue.
func FuzzFabric(f *testing.F) {
	f.Add(uint8(2), uint8(2), false, false, uint16(40), uint32(64), uint16(5))
	f.Add(uint8(3), uint8(5), true, false, uint16(10), uint32(16), uint16(20))
	f.Add(uint8(4), uint8(4), false, true, uint16(25), uint32(4), uint16(1))
	f.Add(uint8(2), uint8(1), true, true, uint16(1), uint32(2), uint16(50))
	f.Fuzz(func(t *testing.T, hosts, flows uint8, incast, udp bool, gbps uint16, queueKB uint32, latUs uint16) {
		h := 2 + int(hosts)%3  // 2..4
		fl := 1 + int(flows)%6 // 1..6
		placement := fabric.PlacePair
		if incast {
			placement = fabric.PlaceIncast
		}
		proto := skb.TCP
		if udp {
			proto = skb.UDP
		}
		sc := fabricScenario(steering.MFlow, proto, h)
		sc.Flows = fl
		sc.Fabric = &fabric.Config{
			Hosts:          h,
			Placement:      placement,
			LinkGbps:       float64(1 + gbps%100),
			LinkQueueBytes: int(1+queueKB%1024) << 10,
			LinkLatency:    sim.Duration(1+latUs%100) * sim.Microsecond,
		}
		res := Run(sc)
		lhs := res.UnderlaySent + uint64(res.UnderlayInFlightStart)
		rhs := res.UnderlayDelivered + res.UnderlayDrops + uint64(res.UnderlayInFlightEnd)
		if lhs != rhs {
			t.Fatalf("underlay conservation broken: sent=%d +if0=%d != delivered=%d +drops=%d +if1=%d",
				res.UnderlaySent, res.UnderlayInFlightStart,
				res.UnderlayDelivered, res.UnderlayDrops, res.UnderlayInFlightEnd)
		}
		if res.OfferedFrames != res.AcceptedFrames+res.DropsRing+res.DropsAdmission {
			t.Fatalf("NIC conservation broken: offered=%d accepted=%d ring=%d admission=%d",
				res.OfferedFrames, res.AcceptedFrames, res.DropsRing, res.DropsAdmission)
		}
		if proto == skb.TCP && res.DeliveredOutOfOrder != 0 {
			t.Fatalf("%d segments delivered out of order to TCP sockets", res.DeliveredOutOfOrder)
		}
	})
}

// TestFabricObservers runs a probed 2-host fabric with a CoreLog and
// checks that every observer keeps the hosts apart: hosts number their
// cores from 0, so only the (host, core) pair identifies a CPU. Every
// flight snapshot must list every core of both hosts, and the CoreLog and
// both Perfetto exports must give each (host, core) its own track.
func TestFabricObservers(t *testing.T) {
	sc := fabricScenario(steering.MFlow, skb.TCP, 2)
	sc.Obs = nil
	sc.CoreLog = &obs.CoreLog{}
	fr := causal.NewFlightRecorder()
	RunProbed(sc, Probes{Causal: causal.NewProfiler(), Flight: fr})

	type hostCore struct{ host, core int }
	d := sc.withDefaults()
	perHost := d.AppCores + d.KernelCores
	want := 2 * perHost
	if len(fr.Snapshots) == 0 {
		t.Fatalf("no flight snapshots (triggers: %v)", fr.Triggers)
	}
	for i, snap := range fr.Snapshots {
		seen := map[hostCore]bool{}
		for _, cs := range snap.Cores {
			seen[hostCore{cs.Host, cs.Core}] = true
		}
		if len(snap.Cores) != want || len(seen) != want {
			t.Errorf("snapshot %d (%s): %d cores, %d distinct; want all %d host cores",
				i, snap.Kind, len(snap.Cores), len(seen), want)
		}
	}

	logged := map[hostCore]bool{}
	for _, iv := range sc.CoreLog.Intervals {
		logged[hostCore{iv.Host, iv.Core}] = true
	}
	for _, h := range []int{0, 1} {
		n := 0
		for k := range logged {
			if k.host == h {
				n++
			}
		}
		if n == 0 {
			t.Errorf("CoreLog holds no intervals of host %d", h)
		}
	}

	// Perfetto: one named thread per logged (host, core), no two sharing a
	// tid or a name; the flight export likewise within each snapshot.
	checkTracks := func(label string, events []obs.ChromeEvent, pid, wantThreads int) {
		tids, names := map[int64]bool{}, map[string]bool{}
		for _, e := range events {
			if e.Ph != "M" || e.Name != "thread_name" || e.Pid != pid {
				continue
			}
			name := e.Args["name"].(string)
			if name == "trigger" {
				continue
			}
			if tids[e.Tid] || names[name] {
				t.Errorf("%s: track %q (tid %d) is not distinct", label, name, e.Tid)
			}
			tids[e.Tid], names[name] = true, true
		}
		if len(tids) != wantThreads {
			t.Errorf("%s: %d core tracks, want %d", label, len(tids), wantThreads)
		}
	}
	checkTracks("timeline", obs.ChromeTraceEvents(nil, sc.CoreLog), obs.PidCores, len(logged))
	checkTracks("flight 0", fr.ChromeEvents(), obs.PidFlight, want)
}

// TestFabricCapture pins the fabric's pcap capture: a 2-host wire run
// writes one stream (a single file header) that parses with the pcap
// reader and holds one record per frame that reached a receiving NIC.
func TestFabricCapture(t *testing.T) {
	sc := fabricScenario(steering.MFlow, skb.TCP, 2)
	sc.WireMode = true
	var buf bytes.Buffer
	sc.Capture = &buf
	Run(sc)
	pkts, err := pcap.Read(&buf)
	if err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	// The registry's counters hold whole-run totals after the run.
	snap := sc.Obs.Snapshot()
	offered := uint64(snap["h0:nic_offered"].Value + snap["h1:nic_offered"].Value)
	if offered == 0 || uint64(len(pkts)) != offered {
		t.Errorf("capture holds %d frames, the NICs were offered %d", len(pkts), offered)
	}
}
