package overlay

import (
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/traffic"
)

// Stack is a receive host without built-in traffic generators, used by
// application-level workloads (web serving, data caching): the application
// injects messages onto flows and is called back when they reach user
// space, with the full overlay receive pipeline (and the steering system
// under test) in between.
type Stack struct {
	sc   Scenario
	h    *host
	seqs []traffic.SeqAlloc
	msgs []uint64
	wire []wireH // per flow: its VTEP → receive edge chain
}

// wireH hands a frame to a flow's wire chain once the one-way wire delay
// has passed (Stack.Send's per-segment event), recycling frames the chain
// rejects.
type wireH struct {
	h  *host
	in traffic.Ingress
}

// Handle implements sim.Handler.
func (w *wireH) Handle(arg any, _ sim.Time) {
	s := arg.(*skb.SKB)
	if !w.in.Deliver(s) {
		w.h.retire(s)
	}
}

// NewStack builds the receive topology of sc (Flows connections) with no
// senders attached.
func NewStack(sc Scenario) *Stack {
	sc.NoTraffic = true
	sc = sc.withDefaults()
	h := buildHost(sc, Probes{}, newRunEnv(sc, runOpts{}))
	st := &Stack{sc: sc, h: h, wire: make([]wireH, sc.Flows)}
	for f, fp := range h.flows {
		st.wire[f] = wireH{h, h.wireIngress(fp)}
	}
	st.seqs = make([]traffic.SeqAlloc, sc.Flows)
	st.msgs = make([]uint64, sc.Flows)
	return st
}

// Scenario returns the stack's normalized scenario.
func (st *Stack) Scenario() Scenario { return st.sc }

// Sched returns the simulation scheduler driving the stack.
func (st *Stack) Sched() *sim.Scheduler { return st.h.sched }

// AppCore returns the application core serving flow f (where server-side
// request processing should be charged).
func (st *Stack) AppCore(f int) *sim.Core { return st.h.acore(f) }

// OnMessage registers the delivery callback for flow f: it fires when a
// message injected with Send completes its trip through the stack to user
// space.
func (st *Stack) OnMessage(f int, fn func(msgID uint64, at sim.Time)) {
	st.h.flows[f].sock.OnMessage = func(id uint64, _ *skb.SKB, at sim.Time) { fn(id, at) }
}

// Send injects a size-byte message onto flow f at the current instant (plus
// the one-way wire delay), segmented like the flow's transport would. It
// returns the message ID that OnMessage will observe. The remote sender's
// CPU is not modeled here — application workloads account their own costs.
func (st *Stack) Send(f, size int) uint64 {
	sc := st.sc
	h := st.h
	fp := h.flows[f]
	msgID := st.msgs[f]
	st.msgs[f]++

	segPayload := traffic.MSS
	if sc.Proto == skb.UDP {
		segPayload = traffic.UDPFragPayload
	}
	nseg := (size + segPayload - 1) / segPayload
	if nseg < 1 {
		nseg = 1
	}
	seq := st.seqs[f].Next(nseg)
	now := h.sched.Now()
	remaining := size
	for i := 0; i < nseg; i++ {
		payload := remaining
		if payload > segPayload {
			payload = segPayload
		}
		remaining -= payload
		s := h.pool.Get()
		s.FlowID = fp.id
		s.Proto = sc.Proto
		s.Seq = seq + uint64(i)
		s.Segs = 1
		s.WireLen = payload + 52
		s.PayloadLen = payload
		s.MsgID = msgID
		s.MsgEnd = i == nseg-1
		s.SentAt = now
		h.sched.AfterHandler(sc.Costs.NetDelay, &st.wire[f], s)
	}
	return msgID
}
