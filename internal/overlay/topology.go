package overlay

import (
	"fmt"

	"mflow/internal/causal"
	mflow "mflow/internal/core"
	"mflow/internal/fault"
	"mflow/internal/gro"
	"mflow/internal/netdev"
	"mflow/internal/nic"
	"mflow/internal/obs"
	"mflow/internal/packet"
	"mflow/internal/pcap"
	"mflow/internal/proto"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/traffic"
	"mflow/internal/txpath"
)

const sameCoreWake = 200 // softirq re-raise latency on the same core

// udpBacklogCap bounds intermediate queues on UDP paths
// (netdev_max_backlog-style); TCP paths are window-limited instead.
const udpBacklogCap = 1000

// host is a fully wired receive-side machine plus its traffic sources.
type host struct {
	sc      Scenario
	sched   *sim.Scheduler
	cores   []*sim.Core // [0,AppCores) app, [AppCores,..) kernel
	clients []*sim.Core
	nic     *nic.NIC
	flows   []*flowPath
	stages  []*stage
	gros    []*gro.GRO
	capture *pcap.Writer
	inj     *fault.Injector // nil unless sc.Faults is enabled
	ov      *ovState        // nil unless sc.Overload is enabled

	// pool recycles the run's SKBs: the runEnv's, shared by every host of
	// the run (nil on unpooled runs).
	pool *skb.Pool
	// prof / flight are the run's probes (both nil for unprobed runs; see
	// Probes). They observe the pipeline through plain func hooks and never
	// alter its behaviour.
	prof   *causal.Profiler
	flight *causal.FlightRecorder
	// ackFree recycles ackRelay events.
	ackFree []*ackRelay

	// Fabric-mode fields; both zero for single-host runs. obsPfx prefixes
	// the host's Set-based registry names ("h0:nic_received") so N hosts
	// sharing one registry don't overwrite each other; ackExtra adds the
	// underlay's one-way latency to the abstract ACK return path of flows
	// this host sends cross-host.
	obsPfx   string
	ackExtra sim.Duration

	// occupancy lists the accumulators armProbes attached to this host's
	// queues; syncObs flushes them into the registry at each window
	// boundary.
	occupancy []*sim.Occupancy
}

// ackRelay carries one acknowledgement (cumulative or duplicate) across the
// lossless return path's wire delay. The relay itself is the event handler —
// the sequence number is a uint64 and would allocate if boxed into the event
// arg — and returns to a host-local freelist after firing.
type ackRelay struct {
	h   *host
	tx  *traffic.TCPSender
	end uint64
	dup bool
}

// Handle implements sim.Handler.
func (a *ackRelay) Handle(_ any, now sim.Time) {
	if a.dup {
		a.tx.DupAck(a.end)
	} else {
		a.tx.Ack(a.end, now)
	}
	a.h.putAck(a)
}

func (h *host) getAck() *ackRelay {
	if n := len(h.ackFree); n > 0 {
		a := h.ackFree[n-1]
		h.ackFree = h.ackFree[:n-1]
		return a
	}
	return &ackRelay{h: h}
}

func (h *host) putAck(a *ackRelay) {
	a.tx, a.end, a.dup = nil, 0, false
	h.ackFree = append(h.ackFree, a)
}

// retire is the host's terminal recycle funnel: it releases any overload
// memory charge the skb still carries, then returns it to the pool. Both
// steps tolerate absence (no overload manager, no pool), so every terminal
// point — socket delivery, drops, GRO absorption — routes through it.
func (h *host) retire(s *skb.SKB) {
	if h.ov != nil {
		h.ov.acct.Release(s)
	}
	h.pool.Put(s)
}

// flowPath is one flow's receive pipeline endpoints and sources.
type flowPath struct {
	id     uint64
	sock   *proto.Socket
	tcpRx  *proto.TCPReceiver
	tcpTx  *traffic.TCPSender
	udpRx  *proto.UDPReceiver
	reasm  *mflow.Reassembler
	split  *mflow.Splitter
	detect *mflow.Detector
	vx     *netdev.VXLAN
	stops  []func()

	// edge is the flow's receive edge on its owner host: the lossy-link
	// tap, the pcap capture and arrival sequencing in front of the NIC
	// ring. Every frame sent on the flow enters the owner host here.
	edge traffic.Ingress

	// arriveErrs records reassembler Arrive failures (missing micro-flow
	// stamps) instead of panicking mid-run; arriveErr keeps the first.
	arriveErrs uint64
	arriveErr  error
}

// recordArriveErr notes a reassembler admission error; the run degrades
// (the skb is not merged) rather than dying.
func (fp *flowPath) recordArriveErr(err error) {
	fp.arriveErrs++
	if fp.arriveErr == nil {
		fp.arriveErr = err
	}
}

// vtep is a flow's sending-side VxLAN tunnel endpoint: frames reach the
// receiver's pNIC wrapped in outer headers, which its vxlan device removes
// again. Single-host runs chain it in front of the flow's receive edge,
// fabric runs in front of the sending host's FDB.
type vtep struct {
	next           traffic.Ingress
	srcMAC, dstMAC packet.MAC
	srcIP, dstIP   packet.IPv4Addr
	ipID           uint16
}

// newVTEP returns the tunnel endpoint from host tx to host rx: each host's
// outer identity is MAC 02:oui:00:00:00:(i+1) and IP 10.0.0.(i+1).
func newVTEP(next traffic.Ingress, oui byte, tx, rx int) *vtep {
	return &vtep{
		next:   next,
		srcMAC: packet.MAC{0x02, oui, 0, 0, 0, byte(tx + 1)},
		dstMAC: packet.MAC{0x02, oui, 0, 0, 0, byte(rx + 1)},
		srcIP:  packet.Addr4(10, 0, 0, byte(tx+1)),
		dstIP:  packet.Addr4(10, 0, 0, byte(rx+1)),
	}
}

// Deliver implements traffic.Ingress: it adds the outer headers'
// accounting and, when the skb carries wire bytes, pushes real outer
// headers into its reserved headroom — in place, so encapsulation adds no
// copy.
func (v *vtep) Deliver(s *skb.SKB) bool {
	if s.Data != nil {
		v.ipID++
		hdr := s.Push(packet.OverlayOverhead)
		packet.EncapVXLANInPlace(hdr, v.srcMAC, v.dstMAC, v.srcIP, v.dstIP,
			uint32(s.FlowID), v.ipID, s.Data[packet.OverlayOverhead:])
	}
	s.Encap = true
	s.WireLen += packet.OverlayOverhead * s.Segs
	return v.next.Deliver(s)
}

// captureTap streams every wire frame entering a NIC into the run's pcap
// capture.
type captureTap struct {
	w     *pcap.Writer
	sched *sim.Scheduler
	inner traffic.Ingress
}

// Deliver implements traffic.Ingress.
func (c captureTap) Deliver(s *skb.SKB) bool {
	if s.Data != nil {
		// Capture errors only mean the sink failed; the simulation
		// proceeds regardless.
		_ = c.w.WritePacket(c.sched.Now(), s.Data)
	}
	return c.inner.Deliver(s)
}

// arrivalSeq re-stamps each segment's sequence number with its NIC arrival
// order. Sequence numbers define the flow's in-order contract for splitting
// and reassembly; with several independent clients stressing one UDP flow,
// only arrival order is meaningful.
type arrivalSeq struct {
	n    *nic.NIC
	next uint64
}

// Deliver implements traffic.Ingress.
func (a *arrivalSeq) Deliver(s *skb.SKB) bool {
	s.Seq = a.next
	a.next += uint64(s.Segs)
	return a.n.Deliver(s)
}

func dev(name string, c netdev.Cost) *netdev.Device {
	return &netdev.Device{Name: name, Cost: c}
}

// baseFor returns flow f's IRQ/base kernel-core offset: RSS hashing in the
// normal regime (collisions included — with 10 flows on 10 cores some cores
// carry two flows while others idle, exactly like real hashing), core 0 in
// the shared-queue regime.
func (h *host) baseFor(f int, overlayPath bool) int {
	if h.sc.SharedQueue && overlayPath {
		return 0
	}
	if h.sc.Flows == 1 {
		return 0
	}
	return int(nic.Hash64(uint64(f)+0x9e37) % uint64(h.sc.KernelCores))
}

// kcore returns kernel core at offset i (mod pool size).
func (h *host) kcore(i int) *sim.Core {
	k := h.sc.KernelCores
	return h.cores[h.sc.AppCores+((i%k)+k)%k]
}

// acore returns the app core serving flow f.
func (h *host) acore(f int) *sim.Core {
	return h.cores[f%h.sc.AppCores]
}

func (h *host) newClientCore() *sim.Core {
	c := sim.NewCore(1000+len(h.clients), h.sched)
	h.clients = append(h.clients, c)
	return c
}

// runOpts are a run's engine options. They are arguments rather than
// Scenario fields, so they never enter a scenario's identity; the
// equivalence tests prove neither changes any result.
type runOpts struct {
	eager    bool // the scheduler's reference mode (sim.Scheduler.SetEager)
	unpooled bool // allocate every SKB fresh instead of recycling
}

// runEnv is the state every host of one run shares: the DES clock, the SKB
// pool, the NICs' PktID sequence and the pcap capture stream (a single
// file header however many hosts write into it).
type runEnv struct {
	sched   *sim.Scheduler
	pool    *skb.Pool    // nil on unpooled runs
	pktSeq  *uint64      // PktIDs stay unique run-wide
	capture *pcap.Writer // nil unless the scenario captures wire bytes
}

func newRunEnv(sc Scenario, opt runOpts) runEnv {
	env := runEnv{sched: sim.NewScheduler(sc.Seed), pktSeq: new(uint64)}
	env.sched.SetEager(opt.eager)
	if !opt.unpooled {
		env.pool = &skb.Pool{}
	}
	if sc.Capture != nil && sc.WireMode {
		env.capture = pcap.NewWriter(sc.Capture)
	}
	return env
}

// buildHost constructs the complete topology for a single-host scenario,
// attaching any probes after the topology is fully wired.
func buildHost(sc Scenario, pr Probes, env runEnv) *host {
	h := newHostShell(sc, pr, env, 0)
	for f := 0; f < sc.Flows; f++ {
		h.buildFlow(f)
	}
	h.finish()
	return h
}

// newHostShell builds host index's cores, NIC and per-host subsystems —
// everything except the flows (built per flow index) and the final wiring
// pass (finish). Fabric runs call it once per host; their hosts prefix
// their registry names with "h<index>:".
func newHostShell(sc Scenario, pr Probes, env runEnv, index int) *host {
	h := &host{sc: sc, sched: env.sched, pool: env.pool, capture: env.capture}
	h.prof, h.flight = pr.Causal, pr.Flight
	if sc.Fabric.Enabled() {
		h.obsPfx = fmt.Sprintf("h%d:", index)
	}
	if sc.Faults.Enabled() {
		h.inj = fault.NewInjector(*sc.Faults, sc.Seed)
	}
	if sc.Overload.Enabled() {
		// Built before the flows so stage construction can wire the memory
		// account's release hook; the manager itself arms after armProbes.
		h.ov = newOvState(h, *sc.Overload)
	}
	cfg := sc.Costs
	total := sc.AppCores + sc.KernelCores
	h.cores = sim.NewCores(total, h.sched)
	for _, c := range h.cores {
		c.Host = index
	}
	for _, c := range h.cores[sc.AppCores:] {
		c.JitterAmp = cfg.JitterAmp
		c.InterferenceProb = cfg.InterferenceProb
		c.InterferenceMean = cfg.InterferenceMean
		if h.inj != nil {
			// Core-stall / IRQ-jitter faults ride the cores' existing
			// noise knobs: the stall probability adds to the calibrated
			// interference, and the stall mean widens it (a single
			// exponential process stands in for both sources).
			p := sc.Faults
			c.JitterAmp += p.IRQJitter
			c.InterferenceProb += p.StallProb
			if p.StallMean > c.InterferenceMean {
				c.InterferenceMean = p.StallMean
			}
		}
	}
	nicCfg := cfg.NIC
	nicCfg.Queues = sc.Flows
	h.nic = nic.New(nicCfg, h.sched)
	h.nic.PktSeq = env.pktSeq
	return h
}

// finish runs the post-flow wiring pass: recycle points, probes and
// overload arming. It must run after every flow the host serves (or sends)
// has been built.
func (h *host) finish() {
	// Wire the pool's recycle points now that the full topology exists:
	// final user-space delivery, TCP duplicate/prune discards, GRO-absorbed
	// segments, and splitting-queue rejections all return their skbs here.
	// With overload control wired the hooks are needed even without a pool
	// (every terminal point must release its memory charge), so they route
	// through the retire funnel.
	if h.pool != nil || h.ov != nil {
		put := h.retire
		for _, g := range h.gros {
			g.Recycle = put
		}
		for _, fp := range h.flows {
			fp.sock.Recycle = put
			if fp.tcpRx != nil {
				fp.tcpRx.Recycle = put
			}
			if fp.split != nil {
				fp.split.Recycle = put
			}
		}
	}

	// Probes wire after the recycle points above: on a probed run the
	// GRO-absorption, TCP-discard and split-queue hooks are replaced by ones
	// that close the packet's record before retiring the skb.
	h.armProbes()
	h.armOverload()
}

// buildFlow wires flow f's receive pipeline and its sender(s) on this one
// host — the classic single-host path.
func (h *host) buildFlow(f int) {
	fp := h.buildFlowRx(f, uint64(f+1))
	if h.sc.NoTraffic {
		return
	}
	h.buildFlowTx(f, fp, h.wireIngress(fp))
}

// wireIngress returns the single-host path from a flow's senders to its
// receive edge: through the flow's VTEP on overlay paths.
func (h *host) wireIngress(fp *flowPath) traffic.Ingress {
	if !isOverlay(h.sc.System, h.sc.Proto) {
		return fp.edge
	}
	return newVTEP(fp.edge, 0xaa, 0, 1)
}

// buildFlowRx wires a flow's receive pipeline. f is the host-local flow
// index (queue pinning, core placement); id is the flow's run-wide wire
// identity — they coincide on a single host, while fabric hosts receive an
// arbitrary subset of the global flow space.
func (h *host) buildFlowRx(f int, id uint64) *flowPath {
	sc := h.sc
	cfg := sc.Costs
	fp := &flowPath{id: id}
	h.flows = append(h.flows, fp)
	h.nic.PinFlow(fp.id, f)

	// Socket: the app receive thread. MFLOW's TCP full-path config merges
	// before the TCP layer and runs TCP processing in the delivery thread
	// (tcp_recvmsg), so its socket charges TCP + copy.
	copyCost := cfg.Copy
	sockCap := 0
	if sc.Proto == skb.UDP {
		sockCap = udpBacklogCap * 2
	}
	if sc.System == steering.MFlow && sc.Proto == skb.TCP {
		copyCost = cfg.Copy.Add(cfg.TCPRx)
	}
	fp.sock = proto.NewSocket(sc.Proto, h.acore(f), h.sched, copyCost, sockCap)
	for i := 1; i < sc.CopyThreads; i++ {
		fp.sock.AddCopyThread(h.cores[(f+i)%sc.AppCores], copyCost, sockCap)
	}
	if h.inj != nil && sc.Proto == skb.UDP && sc.Faults.SockDrop > 0 {
		// Socket receive-queue loss (rmem pressure). UDP only: a TCP
		// socket never drops in-order data it has implicitly acked — it
		// shrinks the advertised window instead, which the sender's
		// outstanding limit already models.
		fp.sock.Gate(func(*skb.SKB) bool { return !h.inj.DropSock() })
	}
	var first *stage
	if sc.System == steering.MFlow {
		first = h.buildMFlowFlow(f, fp)
	} else {
		first = h.buildPlannedFlow(f, fp)
	}
	h.nic.AttachDriver(f, first.worker)
	// The first stage's queue is the NIC descriptor ring: a probed run
	// classifies its head wait as ring-wait, not softirq queueing.
	first.ringFed = true
	if h.inj != nil {
		// The driver worker's queue is the NIC descriptor ring: its
		// admission gate is the ring-drop point, not a backlog one (undo
		// any backlog gate newStage installed).
		first.worker.Gate = nil
		if sc.Faults.RingDrop > 0 {
			first.worker.Gate = func(*skb.SKB) bool { return !h.inj.DropRing() }
		}
	}

	// The receive edge. When several UDP clients share the flow, sequence
	// numbers only make sense in NIC arrival order. The lossy-link tap
	// sits outermost: in wire mode corruption flips real bytes before the
	// capture sees them, and dropped frames are never captured nor take
	// an arrival sequence number.
	fp.edge = h.nic
	if sc.Proto == skb.UDP && sc.UDPClients > 1 {
		fp.edge = &arrivalSeq{n: h.nic}
	}
	if h.capture != nil {
		fp.edge = captureTap{h.capture, h.sched, fp.edge}
	}
	if h.inj != nil && sc.Faults.WireActive() {
		fp.edge = h.inj.Wrap(fp.edge)
	}
	return fp
}

// buildFlowTx wires a flow's sender(s) on this host. net carries their
// frames to fp's receive edge: the local VTEP chain on a single host, the
// cross-host chain (VTEP → FDB → underlay) on a fabric, where fp belongs to
// the remote receiving host. In wire mode the senders' frames get real
// bytes first, and fp's socket checks their frames on delivery.
func (h *host) buildFlowTx(f int, fp *flowPath, net traffic.Ingress) {
	sc := h.sc
	cfg := sc.Costs
	overlay := isOverlay(sc.System, sc.Proto)
	if sc.WireMode {
		net = newWireBuilder(net, fp.id)
		fp.sock.Verify = wireVerify
	}
	// Explicit sender-side pipeline: the sender's syscall work and the
	// egress chain replace the aggregate client-cost model.
	txWrap := func(base traffic.Ingress, app *sim.Core) traffic.Ingress {
		if !sc.ModelTX {
			return base
		}
		return txpath.New(app, h.newClientCore(), h.sched, txpath.DefaultCosts(), overlay, base)
	}
	clientCostTCP := cfg.TCPClient
	clientCostUDP := cfg.UDPClient
	if sc.ModelTX {
		// txpath charges the socket path itself; the sender keeps only a
		// residual per-call overhead.
		clientCostTCP = traffic.ClientCost{PerSeg: 8}
		clientCostUDP = traffic.ClientCost{PerSeg: 8}
	}
	if sc.Proto == skb.TCP {
		appCore := h.newClientCore()
		tx := &traffic.TCPSender{
			FlowID:   fp.id,
			MsgSize:  sc.MsgSize,
			Window:   sc.Window,
			Core:     appCore,
			Sched:    h.sched,
			Net:      txWrap(net, appCore),
			NetDelay: cfg.NetDelay,
			Cost:     clientCostTCP,
			Pool:     h.pool,
		}
		// Overload control drops packets too (admission budget, AQM,
		// pressure gates), so it needs the reliable sender for the same
		// reason fault injection does: an unrecovered hole deadlocks the
		// window. The fabric's underlay tail-drops as well.
		if h.inj != nil || h.ov != nil || sc.Fabric.Enabled() {
			tx.Reliable = true
			tx.InitialRTO = sc.Faults.RTOOrDefault()
			if fp.tcpRx != nil {
				// Dup ACKs ride the same (lossless) return path as
				// cumulative ACKs and steer fast retransmit at the
				// receiver's missing sequence.
				fp.tcpRx.DupAck = func(e uint64) {
					a := h.getAck()
					a.tx, a.end, a.dup = tx, e, true
					h.sched.AfterHandler(cfg.NetDelay+h.ackExtra, a, nil)
				}
				// The hole map that SACK blocks would carry on those
				// ACKs; the simulator queries the receiver's scoreboard
				// directly, so one recovery sweep repairs every known
				// hole per round trip.
				tx.Missing = fp.tcpRx.Missing
			}
		}
		fp.tcpTx = tx
		fp.sock.Ack = func(end uint64, _ sim.Time) {
			a := h.getAck()
			a.tx, a.end = tx, end
			h.sched.AfterHandler(cfg.NetDelay+h.ackExtra, a, nil)
		}
		h.sched.At(0, tx.Start)
		fp.stops = append(fp.stops, tx.Stop)
	} else {
		seq := &traffic.SeqAlloc{}
		for c := 0; c < sc.UDPClients; c++ {
			appCore := h.newClientCore()
			tx := &traffic.UDPSender{
				FlowID:   fp.id,
				MsgSize:  sc.MsgSize,
				Core:     appCore,
				Sched:    h.sched,
				Net:      txWrap(net, appCore),
				NetDelay: cfg.NetDelay,
				Cost:     clientCostUDP,
				Seq:      seq,
				MsgBase:  uint64(c) << 40,
				Pool:     h.pool,
			}
			h.sched.At(0, tx.Start)
			fp.stops = append(fp.stops, tx.Stop)
		}
	}
}

// tailFor returns the delivery function terminating a pipeline: transport
// bookkeeping (ordering for TCP, reordering stats for UDP) then the socket
// queue. core is the CPU context the transport bookkeeping runs in.
func (h *host) tailFor(fp *flowPath, core *sim.Core) func(*skb.SKB, sim.Time) {
	if h.sc.Proto == skb.TCP {
		fp.tcpRx = &proto.TCPReceiver{
			OOOQueueCost: h.sc.Costs.OOOQueue,
			Deliver: func(s *skb.SKB) {
				if !fp.sock.Enqueue(s) {
					h.drop(s, "socket", "drop-sock")
				}
			},
		}
		if h.inj != nil {
			fp.tcpRx.OFOCap = h.sc.Faults.OFOCapOrDefault()
		}
		return func(s *skb.SKB, _ sim.Time) { fp.tcpRx.Rx(s, core) }
	}
	fp.udpRx = &proto.UDPReceiver{
		Deliver: func(s *skb.SKB) {
			if !fp.sock.Enqueue(s) {
				h.drop(s, "socket", "drop-sock")
			}
		},
	}
	return func(s *skb.SKB, _ sim.Time) { fp.udpRx.Rx(s, core) }
}

// noteDrop is the probes' drop funnel: every skb leaving the stack at a
// drop point closes its causal record at where and, when kind is set,
// fires that flight-recorder trigger. Both probes tolerate absence.
func (h *host) noteDrop(s *skb.SKB, where, kind string) {
	now := h.sched.Now()
	h.prof.Drop(s, now, where)
	if kind != "" {
		h.flight.Trigger(kind, s.PktID, s.FlowID, now)
	}
}

// drop observes a drop the host owns, then retires the skb.
func (h *host) drop(s *skb.SKB, where, kind string) {
	h.noteDrop(s, where, kind)
	h.retire(s)
}

// armProbes attaches every run observer to the fully built topology: the
// tracer, the obs registry's stage/socket histograms and queue-depth
// probes, the CoreLog, the causal profiler and the flight recorder. It is
// the only place observers attach. Each hook is a plain func or field on
// the observed component: unprobed runs leave them nil and pay nothing,
// and probed runs only observe, never alter behaviour.
func (h *host) armProbes() {
	sc, p, fr := h.sc, h.prof, h.flight
	tr, reg, clog := sc.Tracer, sc.Obs, sc.CoreLog
	if clog != nil || fr != nil {
		// One ExecLog per core feeds both the timeline and the core's
		// flight ring.
		for _, c := range h.cores {
			host, id, ring := c.Host, c.ID, fr.Ring(c.Host, c.ID)
			c.ExecLog = func(tag string, start, end sim.Time) {
				clog.Add(obs.Interval{Host: host, Core: id, Tag: tag, Start: start, End: end})
				ring.Push(tag, start, end)
			}
		}
	}
	// Stages sharing a name (parallel branches, the same stage across
	// flows) share their histograms, so stage_latency{stage=X} aggregates
	// all of X.
	for _, st := range h.stages {
		st.tracer, st.prof = tr, p
		if reg != nil {
			st.obsOn = true
			st.latency = reg.Histogram("stage_latency", "stage", st.name)
			st.gap = reg.GapTo(st.name)
		}
	}
	if tr != nil || reg != nil || p != nil {
		// User-space delivery is the pipeline's final stage: record its
		// latency-since-NIC-arrival per wire segment (so histogram counts
		// line up with delivered segment counts) and the queueing gap from
		// the last kernel stage; the profiler closes the record last.
		sockLat := reg.Histogram("stage_latency", "stage", "socket")
		sockGap := reg.GapTo("socket")
		for _, fp := range h.flows {
			app := fp.sock.Worker().Core
			fp.sock.Tap = func(s *skb.SKB, at sim.Time) {
				tr.Record(at, s.PktID, s.FlowID, s.Seq, s.Segs, "socket", app.Host, app.ID)
				sockLat.RecordN(int64(at.Sub(s.ArrivedAt)), uint64(s.Segs))
				if s.LastStage != "" {
					sockGap(s.LastStage, int64(at.Sub(s.LastStageAt)))
				}
				p.Complete(s, at)
			}
		}
	}
	if reg != nil {
		// Exact time-weighted occupancy (queue_depth: count is ns observed,
		// p99 the depth held or below 99% of the time) of the NIC
		// descriptor rings, every softirq backlog (keyed by stage name and
		// a build-order index so parallel branches stay distinguishable),
		// and each flow's socket receive queue. A ring is its first
		// stage's worker, whose one accumulator feeds both series.
		track := func(name string, w *sim.Worker[*skb.SKB]) {
			if w == nil {
				// A NIC queue with no driver (a TX-only fabric host's
				// idle queue) stays empty; account it as such.
				w = &sim.Worker[*skb.SKB]{}
			}
			if w.Occupancy == nil {
				w.Occupancy = sim.NewOccupancy(h.sched.Now(), w.Len())
				h.occupancy = append(h.occupancy, w.Occupancy)
			}
			w.Occupancy.Into(reg.Histogram("queue_depth", "queue", h.obsPfx+name).RecordN)
		}
		for q := 0; q < h.nic.Config().Queues; q++ {
			track(fmt.Sprintf("nic_ring%d", q), h.nic.Driver(q))
		}
		for i, st := range h.stages {
			track(fmt.Sprintf("backlog:%s#%d", st.name, i), st.worker)
		}
		for i, fp := range h.flows {
			track(fmt.Sprintf("socket:flow%d", i+1), fp.sock.Worker())
		}
	}
	if p == nil && fr == nil {
		return
	}
	h.nic.OnDrop = func(s *skb.SKB) { h.noteDrop(s, "nic-ring", "drop-ring") }
	for _, g := range h.gros {
		g.Recycle = func(s *skb.SKB) {
			p.Absorb(s)
			h.retire(s)
		}
	}
	for _, fp := range h.flows {
		for _, w := range fp.sock.Workers() {
			w.ServeLog = func(s *skb.SKB, start, end sim.Time) {
				p.MarkServe(s, start, end)
			}
		}
		if fp.reasm != nil {
			fp.reasm.OnDeliver = func(head *skb.SKB, blame uint64) {
				p.MarkBlame(head, "reassembler", h.sched.Now(), blame)
			}
			fp.reasm.OnHoleReleased = func(head *skb.SKB) {
				fr.Trigger("gap-timeout", head.PktID, head.FlowID, h.sched.Now())
			}
		}
		if fp.tcpRx != nil {
			fp.tcpRx.OnDeliverParked = func(parked, filler *skb.SKB) {
				p.MarkBlame(parked, "tcp-ofo", h.sched.Now(), filler.PktID)
			}
			fp.tcpRx.Recycle = func(s *skb.SKB) { h.drop(s, "tcp-dup", "") }
		}
		if fp.split != nil {
			fp.split.OnIdleWake = p.NoteIdleWake
			fp.split.Recycle = func(s *skb.SKB) { h.drop(s, "split-queue", "drop-split") }
		}
		if verify := fp.sock.Verify; verify != nil {
			fp.sock.Verify = func(s *skb.SKB) error {
				err := verify(s)
				if err != nil {
					fr.Trigger("corruption", s.PktID, s.FlowID, h.sched.Now())
				}
				return err
			}
		}
		if fp.tcpTx != nil {
			id := fp.id
			fp.tcpTx.OnRTO = func() {
				fr.Trigger("rto", 0, id, h.sched.Now())
			}
		}
	}
}

// armFaultRecovery relaxes a flow's reassembler for fault-injected runs:
// holes are tolerated (losses are skipped over, retransmissions return as
// stale micro-flows and are delivered out of band for the TCP layer to
// re-order) and the gap timer bounds how long the merger can stall on a
// hole. No-op without an injector or fabric (whose underlay tail-drops can
// punch holes too), so lossless runs keep the strict contiguity invariant.
func (h *host) armFaultRecovery(fp *flowPath) {
	if (h.inj == nil && !h.sc.Fabric.Enabled()) || fp.reasm == nil {
		return
	}
	fp.reasm.AllowGaps = true
	fp.reasm.GapTimeout = h.sc.Faults.GapTimeoutOrDefault()
	explicitGap := h.sc.Faults != nil && h.sc.Faults.GapTimeout != 0
	if h.sc.Proto == skb.TCP && !explicitGap {
		// TCP restores order downstream (the receiver's out-of-order
		// queue), so an over-eager release costs only some re-parking —
		// while every microsecond the merger stalls delays the duplicate
		// ACKs that drive loss recovery. Default far tighter than UDP,
		// where a release turns straight into out-of-order delivery.
		fp.reasm.GapTimeout = h.sc.Faults.GapTimeoutOrDefault() / 8
	}
	fp.reasm.Sched = h.sched
}

// addStageDevices fills a stage's device lists for one plan stage.
func (h *host) addStageDevices(st *stage, fp *flowPath, stg steering.Stage, overlay bool) {
	cfg := h.sc.Costs
	switch stg {
	case steering.StageAlloc:
		st.pre = append(st.pre, dev("alloc", cfg.Alloc))
	case steering.StageGRO:
		if h.sc.Proto == skb.TCP {
			gcost := cfg.GRONative
			if overlay {
				gcost = cfg.GROOverlay
			}
			st.pre = append(st.pre, dev("gro", gcost))
			st.gro = gro.New()
			h.gros = append(h.gros, st.gro)
		} else {
			st.pre = append(st.pre, dev("gro", cfg.GROLookupUDP))
		}
		if overlay {
			st.post = append(st.post, dev("ip", cfg.OuterIPUDP))
		}
	case steering.StageVXLAN:
		st.post = append(st.post, fp.vxDevice(cfg))
	case steering.StageInner:
		if overlay {
			st.post = append(st.post,
				dev("bridge", cfg.Bridge),
				dev("veth", cfg.Veth))
		}
		st.post = append(st.post, dev("ip", cfg.InnerIP))
		if h.sc.Proto == skb.TCP {
			st.post = append(st.post, dev("tcp", cfg.TCPRx))
		} else {
			st.post = append(st.post, dev("udp", cfg.UDPRx))
		}
		st.post = append(st.post, dev("sock", cfg.SockEnq))
	}
}

// vxDevice lazily creates the flow's VxLAN tunnel endpoint device.
func (fp *flowPath) vxDevice(cfg *CostModel) *netdev.Device {
	if fp.vx == nil {
		fp.vx = &netdev.VXLAN{VNI: uint32(fp.id)}
	}
	return fp.vx.RxDevice(cfg.VXLAN)
}

// isOverlay reports whether packets of this system/protocol arrive
// encapsulated (Slim bypasses the overlay for TCP only).
func isOverlay(sys steering.System, proto skb.Proto) bool {
	if sys == steering.Native {
		return false
	}
	if sys == steering.Slim && proto == skb.TCP {
		return false
	}
	return true
}

// falconClasses partitions kernelCores across a handoff plan's stage
// groups: VxLAN classes get exactly one core (one host-wide device), other
// classes share the remainder proportionally to rough stage weights.
func falconClasses(plan steering.Plan, kernelCores int) (starts, sizes []int) {
	ng := len(plan.Groups)
	starts = make([]int, ng)
	sizes = make([]int, ng)
	weights := make([]int, ng)
	wsum := 0
	spare := kernelCores
	for i, g := range plan.Groups {
		vx := false
		w := 1
		for _, stg := range g.Stages {
			if stg == steering.StageVXLAN {
				vx = true
			}
			if stg == steering.StageAlloc || stg == steering.StageGRO {
				w = 2
			}
		}
		if vx {
			sizes[i] = 1
			spare--
		} else {
			weights[i] = w
			wsum += w
		}
	}
	for i := range sizes {
		if sizes[i] == 0 && wsum > 0 {
			sizes[i] = spare * weights[i] / wsum
			if sizes[i] < 1 {
				sizes[i] = 1
			}
		}
	}
	off := 0
	for i := range sizes {
		starts[i] = off
		off += sizes[i]
	}
	return starts, sizes
}

// buildPlannedFlow realizes a static placement plan (native, vanilla, RPS,
// FALCON, Slim) and returns the first stage (the NIC driver softirq).
func (h *host) buildPlannedFlow(f int, fp *flowPath) *stage {
	sc := h.sc
	cfg := sc.Costs
	plan := steering.PlanFor(sc.System, sc.Proto)
	overlay := isOverlay(sc.System, sc.Proto)
	base := h.baseFor(f, overlay)
	cap := 0
	if sc.Proto == skb.UDP {
		cap = udpBacklogCap
	}

	// FALCON pins device classes to cores: the kernel-core pool is
	// partitioned per stage group and flow f's group-i softirq runs on a
	// core of class i. Device classes have unequal weights, which is the
	// source of FALCON's uneven per-core load (paper Fig. 12). The other
	// plans place groups at flow-relative offsets.
	// FALCON pins device classes to cores. The VxLAN device is one
	// host-wide device whose softirq lands on a single core for every
	// flow — precisely the paper's critique: a heavy device still
	// saturates one core. The remaining classes partition the rest of
	// the kernel pool, weighted by their rough stage cost so the heavy
	// first softirq gets more cores.
	starts, sizes := falconClasses(plan, sc.KernelCores)
	coreFor := func(i int, g steering.Group) *sim.Core {
		if !plan.Handoff {
			return h.kcore(base + g.CoreOff)
		}
		return h.kcore(starts[i] + f%sizes[i])
	}

	n := len(plan.Groups)
	stages := make([]*stage, n)
	for i := n - 1; i >= 0; i-- {
		g := plan.Groups[i]
		coreC := coreFor(i, g)
		wake := sim.Duration(sameCoreWake)
		if i > 0 && coreFor(i-1, plan.Groups[i-1]) != coreC {
			wake = cfg.BacklogWake
		}
		st := h.newStage(fmt.Sprintf("%s-g%d", sc.System, i), coreC, cap, wake)
		preGRO := false
		for _, stg := range g.Stages {
			h.addStageDevices(st, fp, stg, overlay)
			if stg == steering.StageAlloc {
				preGRO = true
			}
			if stg == steering.StageGRO {
				preGRO = false
			}
		}
		if i < n-1 {
			switch {
			case plan.Handoff:
				st.handoff = cfg.HandoffPerSKB
				if preGRO && plan.PreGROHandoff {
					st.handoff += cfg.HandoffPreGROExtra
				}
			case sc.System == steering.RPS && i == 0:
				st.handoff = cfg.RPSSteer
			}
			next := stages[i+1]
			st.out = next.feed()
		} else {
			st.out = h.tailFor(fp, coreC)
		}
		stages[i] = st
		h.stages = append(h.stages, st)
	}
	return stages[0]
}
