package proto

import (
	"mflow/internal/metrics"
	"mflow/internal/netdev"
	"mflow/internal/sim"
	"mflow/internal/skb"
)

// Socket is the user-space boundary: a receive queue drained by the
// application's receiving thread, which copies payload out of kernel buffers
// at a per-byte cost. The thread is bonded to one core (conventionally core
// 0, per the paper's figures) and is deliberately not parallelized — the
// paper's conclusion names this single data-copying thread as the next
// bottleneck once MFLOW removes the softirq one.
type Socket struct {
	// Proto is the transport protocol the socket serves.
	Proto skb.Proto
	// Ack, when set (TCP), is invoked with the cumulative consumed
	// sequence after each delivery, clocking the sender's window open.
	Ack AckFn
	// OnMessage fires when a message's final segment reaches user space.
	OnMessage func(msgID uint64, s *skb.SKB, at sim.Time)
	// Verify, if set, checks each delivered skb (wire-mode integrity);
	// failures increment VerifyErrors and record FirstVerifyErr.
	Verify func(*skb.SKB) error
	// Tap, if set, observes every delivered skb (tracing).
	Tap func(*skb.SKB, sim.Time)
	// Recycle, if set, receives each skb after user-space delivery — the
	// pipeline's terminal ownership point — so the run's pool can reuse
	// it. Delivery callbacks (Tap, OnMessage) must not retain the skb.
	Recycle func(*skb.SKB)

	// VerifyErrors counts failed integrity checks.
	VerifyErrors   uint64
	FirstVerifyErr error

	// Latency records per-message delivery latency (ns).
	Latency *metrics.Histogram
	// Bytes / Msgs / Packets count delivered traffic.
	Bytes   uint64
	Msgs    uint64
	Packets uint64
	// OOODelivered counts skbs that reached user space with a sequence
	// below one already delivered — for TCP this must stay zero even
	// under fault injection (the in-order contract).
	OOODelivered uint64

	maxEnd uint64

	worker *sim.Worker[*skb.SKB]
	extra  []*sim.Worker[*skb.SKB]
	rr     int
	sched  *sim.Scheduler
}

// NewSocket builds a socket whose receiving thread runs on core with the
// given per-copy cost model. queueCap bounds the receive queue (0 =
// unbounded; UDP sockets drop beyond it like rmem overflow).
func NewSocket(proto skb.Proto, core *sim.Core, sched *sim.Scheduler, copyCost netdev.Cost, queueCap int) *Socket {
	s := &Socket{
		Proto:   proto,
		Latency: metrics.NewHistogram(),
		sched:   sched,
	}
	s.worker = sim.NewWorker("copy", core, sched,
		func(sk *skb.SKB) sim.Duration { return copyCost.Of(sk) },
		s.delivered)
	s.worker.Cap = queueCap
	return s
}

// Worker exposes the receive-queue worker so topologies can retarget or
// instrument it (e.g. MFLOW attaches its merge step to this thread).
func (s *Socket) Worker() *sim.Worker[*skb.SKB] { return s.worker }

// Workers returns every delivery-copy worker, primary first, so
// instrumentation (the causal profiler's sock-wait/copy split) can observe
// all copy threads.
func (s *Socket) Workers() []*sim.Worker[*skb.SKB] {
	return append([]*sim.Worker[*skb.SKB]{s.worker}, s.extra...)
}

// AddCopyThread adds a parallel delivery-copy thread on core with the same
// cost model — the paper's future-work extension for the single
// data-copying thread bottleneck. Deliveries round-robin across threads.
func (s *Socket) AddCopyThread(core *sim.Core, copyCost netdev.Cost, queueCap int) {
	w := sim.NewWorker("copy", core, s.sched,
		func(sk *skb.SKB) sim.Duration { return copyCost.Of(sk) },
		s.delivered)
	w.Cap = queueCap
	s.extra = append(s.extra, w)
}

// Enqueue places an in-order skb on the receive queue (round-robin across
// copy threads when parallel delivery is enabled). It reports false if the
// bounded queue overflowed (datagram dropped).
func (s *Socket) Enqueue(sk *skb.SKB) bool {
	if len(s.extra) == 0 {
		return s.worker.Enqueue(sk)
	}
	n := 1 + len(s.extra)
	i := s.rr % n
	s.rr++
	if i == 0 {
		return s.worker.Enqueue(sk)
	}
	return s.extra[i-1].Enqueue(sk)
}

// Gate installs an admission gate on every copy-thread queue — fault
// injection's socket-drop point. Call after AddCopyThread.
func (s *Socket) Gate(g func(*skb.SKB) bool) {
	s.worker.Gate = g
	for _, w := range s.extra {
		w.Gate = g
	}
}

// Dropped returns the number of skbs lost to receive-queue overflow.
func (s *Socket) Dropped() uint64 {
	d := s.worker.Dropped
	for _, w := range s.extra {
		d += w.Dropped
	}
	return d
}

func (s *Socket) delivered(sk *skb.SKB, at sim.Time) {
	if s.Tap != nil {
		s.Tap(sk, at)
	}
	if s.Verify != nil {
		if err := s.Verify(sk); err != nil {
			s.VerifyErrors++
			if s.FirstVerifyErr == nil {
				s.FirstVerifyErr = err
			}
		}
	}
	if sk.Seq < s.maxEnd {
		s.OOODelivered++
	}
	if end := sk.EndSeq(); end > s.maxEnd {
		s.maxEnd = end
	}
	s.Bytes += uint64(sk.PayloadLen)
	s.Packets += uint64(sk.Segs)
	if sk.MsgEnd {
		s.Msgs++
		s.Latency.Record(int64(at.Sub(sk.SentAt)))
		if s.OnMessage != nil {
			s.OnMessage(sk.MsgID, sk, at)
		}
	}
	if s.Ack != nil {
		s.Ack(sk.EndSeq(), at)
	}
	if s.Recycle != nil {
		s.Recycle(sk)
	}
}
