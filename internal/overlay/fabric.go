package overlay

import (
	"fmt"

	"mflow/internal/fabric"
	"mflow/internal/netdev"
	"mflow/internal/packet"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/traffic"
)

// fabState is the cross-host machinery of a fabric run: the underlay wire
// model, the per-host VTEP FDBs, and the flow placement maps. All hosts
// share the run's runEnv, so the run is a single deterministic event
// timeline.
type fabState struct {
	cfg   fabric.Config
	sched *sim.Scheduler
	un    *fabric.Underlay
	hosts []*host

	// bridges[i] is host i's VTEP forwarding database: ports are peer host
	// indices, so ForwardAt's unicast/flood decision IS the head-end
	// replication decision. Entries age with cfg.FDBMaxAge.
	bridges []*netdev.Bridge

	// rxHost/txHost map a flow's wire identity to its placement; rxEdge is
	// the flow's receive edge on its owner host (flowPath.edge).
	rxHost map[uint64]int
	txHost map[uint64]int
	rxEdge map[uint64]traffic.Ingress

	// lastOK carries the owner-copy Send verdict from a bridge port egress
	// back to fabIngress.Deliver (the DES is single-threaded, so one cell
	// suffices).
	lastOK bool
}

// fabIngress carries a sending flow's frames across the fabric: the TX
// host's FDB (unicast or head-end-replication flood), then the underlay
// toward the owner host's receive edge. On overlay paths the flow's VTEP
// sits in front of it, as it sits in front of the receive edge on a single
// host.
type fabIngress struct {
	fs     *fabState
	tx, rx int
	src    packet.MAC // sending client endpoint
	dst    packet.MAC // receiving container endpoint
}

// Deliver implements traffic.Ingress. A false return means the underlay's
// uplink tail-dropped the frame and the sender keeps ownership.
func (fi *fabIngress) Deliver(s *skb.SKB) bool {
	fs := fi.fs
	now := fs.sched.Now()
	if !s.Encap {
		// Host networking (native, Slim's TCP): no VTEP, no FDB — the
		// frame unicasts straight to the owner host.
		return fs.un.Send(now, fi.tx, fi.rx, s)
	}
	br := fs.bridges[fi.tx]
	_, known := br.LookupAt(fi.dst, now)
	fs.lastOK = false
	br.ForwardAt(fi.tx, fi.src, fi.dst, s, now)
	if !known {
		// Flood-then-learn: the owner's reply (abstract here — ACKs are
		// callbacks, not wire frames) would teach the VTEP one propagation
		// delay later; model exactly that.
		fs.un.ScheduleLearn(br, fi.dst, fi.rx)
	}
	return fs.lastOK
}

// attachBridge builds host i's VTEP FDB with one port per peer host. The
// owner's copy is the only one that materializes (a real underlay Send);
// flood copies toward other peers consume wire bandwidth only.
func (fs *fabState) attachBridge(i, n int) {
	b := netdev.NewBridge()
	b.MaxAge = fs.cfg.FDBMaxAge
	for j := 0; j < n; j++ {
		i, j := i, j
		b.AttachPort(func(s *skb.SKB) {
			if j == i {
				return
			}
			now := fs.sched.Now()
			if j == fs.rxHost[s.FlowID] {
				fs.lastOK = fs.un.Send(now, i, j, s)
			} else {
				fs.un.SendCopy(now, i, j, s.WireLen)
			}
		})
	}
	fs.bridges = append(fs.bridges, b)
}

// deliver is the underlay's terminal hop: the frame enters the owner
// host's receive edge. The destination VTEP also learns the sending
// client's MAC (the frame's inner source), which is what makes the
// reverse path unicast from the first reply on.
func (fs *fabState) deliver(dst int, s *skb.SKB) {
	h := fs.hosts[dst]
	if s.Encap {
		fs.bridges[dst].LearnAt(fabric.ContainerMAC(s.FlowID, fs.txHost[s.FlowID], false),
			fs.txHost[s.FlowID], fs.sched.Now())
	}
	edge := fs.rxEdge[s.FlowID]
	if edge == nil || !edge.Deliver(s) {
		h.retire(s)
	}
}

// fdbTotals sums the FDB counters across every host's VTEP.
func (fs *fabState) fdbTotals() (floods, learned, aged uint64) {
	for _, b := range fs.bridges {
		floods += b.Flooded
		learned += b.Learned
		aged += b.Aged
	}
	return
}

// syncObs mirrors the fabric's monotonic counters into the registry; like
// host.syncObs it runs at both window boundaries so Snapshot.Diff yields
// per-window deltas.
func (fs *fabState) syncObs(sc Scenario) {
	reg := sc.Obs
	if reg == nil {
		return
	}
	countersAll(nil, fs).publish(reg, "", func(group string) bool { return group == "underlay" })
	floods, learned, aged := fs.fdbTotals()
	reg.Counter("fdb_floods").Set(floods)
	reg.Counter("fdb_learned").Set(learned)
	reg.Counter("fdb_aged").Set(aged)
	for i := range fs.hosts {
		reg.Counter(fmt.Sprintf("h%d:underlay_up_drops", i)).Set(fs.un.Up(i).Drops)
		reg.Counter(fmt.Sprintf("h%d:underlay_down_drops", i)).Set(fs.un.Down(i).Drops)
	}
}

// runFabric executes a multi-host scenario: N host shells on the run's
// shared environment, flows placed across them by the fabric config, the
// TX side of each flow wired through the VTEP/underlay chain into the RX
// host's receive edge.
func runFabric(sc Scenario, pr Probes, env runEnv) *Result {
	fcfg := sc.Fabric.WithDefaults()
	n := fcfg.Hosts
	fs := &fabState{
		cfg:    fcfg,
		sched:  env.sched,
		un:     fabric.NewUnderlay(n, fcfg, env.sched),
		rxHost: make(map[uint64]int),
		txHost: make(map[uint64]int),
		rxEdge: make(map[uint64]traffic.Ingress),
	}
	fs.un.DeliverTo = fs.deliver
	fs.un.Drop = env.pool.Put

	// Pre-compute per-host receive counts so each shell sizes its NIC
	// queues (and RSS pinning space) to the flows it actually serves.
	rxCount := make([]int, n)
	for f := 0; f < sc.Flows; f++ {
		_, rx := fcfg.Place(f)
		rxCount[rx]++
	}
	for i := 0; i < n; i++ {
		hsc := sc
		hsc.Flows = rxCount[i]
		if hsc.Flows == 0 {
			hsc.Flows = 1 // TX-only host: keep one (idle) NIC queue
		}
		h := newHostShell(hsc, pr, env, i)
		h.ackExtra = fcfg.LinkLatency
		fs.hosts = append(fs.hosts, h)
		fs.attachBridge(i, n)
	}

	// Wire flows in global order (determinism): the RX pipeline and its
	// receive edge on the owner host, then the sender on the TX host.
	localIdx := make([]int, n)
	for f := 0; f < sc.Flows; f++ {
		txH, rxH := fcfg.Place(f)
		id := uint64(f + 1)
		fs.rxHost[id] = rxH
		fs.txHost[id] = txH
		fp := fs.hosts[rxH].buildFlowRx(localIdx[rxH], id)
		localIdx[rxH]++
		fs.rxEdge[id] = fp.edge
		if sc.NoTraffic {
			continue
		}
		var net traffic.Ingress = &fabIngress{
			fs:  fs,
			tx:  txH,
			rx:  rxH,
			src: fabric.ContainerMAC(id, txH, false),
			dst: fabric.ContainerMAC(id, rxH, true),
		}
		if isOverlay(sc.System, sc.Proto) {
			net = newVTEP(net, 0xee, txH, rxH)
		}
		fs.hosts[txH].buildFlowTx(f, fp, net)
	}
	for _, h := range fs.hosts {
		h.finish()
	}
	return runHosts(sc, env.sched, fs.hosts, fs)
}
