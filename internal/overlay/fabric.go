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
// share one scheduler, one SKB pool and one PktID sequence, so the run is
// a single deterministic event timeline.
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
	// the flow's receive-side entry chain on its owner host (fault wrap →
	// arrival sequencing → NIC ring).
	rxHost map[uint64]int
	txHost map[uint64]int
	rxEdge map[uint64]traffic.Ingress

	// lastOK carries the owner-copy Send verdict from a bridge port egress
	// back to fabIngress.Deliver (the DES is single-threaded, so one cell
	// suffices).
	lastOK bool
}

// fabIngress is a sending flow's cross-host ingress chain: VTEP encap
// (accounting always; real outer headers when the run carries wire
// bytes), the TX host's FDB (unicast or head-end-replication flood),
// then the underlay toward the owner host's NIC. It replaces the local
// encapIngress→NIC chain that buildFlowTx wires on a single host.
type fabIngress struct {
	fs      *fabState
	tx, rx  int
	overlay bool
	src     packet.MAC // sending client endpoint
	dst     packet.MAC // receiving container endpoint

	// Outer (host-level) addressing for wire-mode byte encapsulation:
	// the sending host's uplink identity and the owner host's.
	outerSrcMAC, outerDstMAC packet.MAC
	outerSrcIP, outerDstIP   packet.IPv4Addr
	ipID                     uint16
}

// Deliver implements traffic.Ingress. A false return means the underlay's
// uplink tail-dropped the frame and the sender keeps ownership.
func (fi *fabIngress) Deliver(s *skb.SKB) bool {
	fs := fi.fs
	now := fs.sched.Now()
	if !fi.overlay {
		// Host networking (native, Slim-TCP): no VTEP, no FDB — the frame
		// unicasts straight to the owner host.
		return fs.un.Send(now, fi.tx, fi.rx, s)
	}
	// TX-side VTEP encapsulation (the RX pipeline's VXLAN stage decaps).
	// With wire bytes attached the outer headers are written into the
	// skb's reserved headroom — the same in-place push the local vxlan
	// device uses, so crossing the fabric adds no copy either.
	if s.Data != nil {
		fi.ipID++
		hdr := s.Push(packet.OverlayOverhead)
		packet.EncapVXLANInPlace(hdr, fi.outerSrcMAC, fi.outerDstMAC, fi.outerSrcIP, fi.outerDstIP,
			uint32(s.FlowID), fi.ipID, s.Data[packet.OverlayOverhead:])
	}
	s.Encap = true
	s.WireLen += packet.OverlayOverhead * s.Segs
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

// runFabric executes a multi-host scenario: N host shells on one shared
// clock, flows placed across them by the fabric config, the TX side of
// each flow wired through the VTEP/underlay chain into the RX host's NIC.
func runFabric(sc Scenario, pr Probes) *Result {
	fcfg := sc.Fabric.WithDefaults()
	n := fcfg.Hosts
	sched := sim.NewScheduler(sc.Seed)
	var pool *skb.Pool
	if !disablePool {
		pool = &skb.Pool{}
	}
	var pktSeq uint64

	fs := &fabState{
		cfg:    fcfg,
		sched:  sched,
		un:     fabric.NewUnderlay(n, fcfg, sched),
		rxHost: make(map[uint64]int),
		txHost: make(map[uint64]int),
		rxEdge: make(map[uint64]traffic.Ingress),
	}
	fs.un.DeliverTo = fs.deliver
	fs.un.Drop = func(s *skb.SKB) { pool.Put(s) }

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
		h := newHostShell(hsc, pr, hostOpts{
			sched:  sched,
			pool:   pool,
			pktSeq: &pktSeq,
			obsPfx: fmt.Sprintf("h%d:", i),
		})
		h.ackExtra = fcfg.LinkLatency
		fs.hosts = append(fs.hosts, h)
		fs.attachBridge(i, n)
	}

	// Wire flows in global order (determinism): the RX pipeline on the
	// owner host, the receive edge, then the sender on the TX host.
	localIdx := make([]int, n)
	for f := 0; f < sc.Flows; f++ {
		txH, rxH := fcfg.Place(f)
		id := uint64(f + 1)
		fs.rxHost[id] = rxH
		fs.txHost[id] = txH
		rh := fs.hosts[rxH]
		fp := rh.buildFlowRx(localIdx[rxH], id)
		localIdx[rxH]++

		var edge traffic.Ingress = rh.nic
		if sc.Proto == skb.UDP && sc.UDPClients > 1 {
			edge = &arrivalSeq{n: rh.nic}
		}
		if rh.inj != nil && sc.Faults.WireActive() {
			edge = rh.inj.Wrap(edge)
		}
		fs.rxEdge[id] = edge

		if sc.NoTraffic {
			continue
		}
		var ingress traffic.Ingress = &fabIngress{
			fs:      fs,
			tx:      txH,
			rx:      rxH,
			overlay: isOverlay(sc.System, sc.Proto),
			src:     fabric.ContainerMAC(id, txH, false),
			dst:     fabric.ContainerMAC(id, rxH, true),
			// Host-level outer addressing, one identity per host.
			outerSrcMAC: packet.MAC{0x02, 0xee, 0, 0, 0, byte(txH + 1)},
			outerDstMAC: packet.MAC{0x02, 0xee, 0, 0, 0, byte(rxH + 1)},
			outerSrcIP:  packet.Addr4(10, 0, 0, byte(txH+1)),
			outerDstIP:  packet.Addr4(10, 0, 0, byte(rxH+1)),
		}
		if sc.WireMode {
			// Real bytes across the fabric: the builder lays the inner
			// frame into headroom-reserved arenas (VTEP encap is the
			// fabIngress's in-place push), and the owner host's socket
			// verifies payload integrity after the remote decap.
			ingress = newWireBuilder(ingress, id, false)
			fp.sock.Verify = wireVerify(fp)
		}
		fs.hosts[txH].buildFlowTx(f, fp, ingress)
	}
	for _, h := range fs.hosts {
		h.finish()
	}
	return runHosts(sc, sched, fs.hosts, fs)
}
