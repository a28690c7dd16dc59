//go:build race || skbdebug

package skb

import "mflow/internal/sim"

// PoisonEnabled reports whether Pool.Put scribbles over recycled SKBs.
// It is true under -race or the skbdebug build tag.
const PoisonEnabled = true

// Poison values chosen to be loud: a flow/seq/time of this magnitude never
// occurs in a real run, so a stale reference read after Put is unmistakable
// in test failures and trace output.
const (
	PoisonU64  = 0xdead_beef_dead_beef
	PoisonInt  = -0x5eed
	PoisonTime = sim.Time(-0x7fff_ffff_ffff)
	// PoisonByte fills every recycled arena byte: a frame read after Put
	// parses as garbage (bad checksums, bad lengths) instead of stale
	// wire bytes.
	PoisonByte = 0xA5
)

func poison(s *SKB) {
	s.FlowID = PoisonU64
	s.Proto = Proto(PoisonInt)
	s.Seq = PoisonU64
	s.Segs = PoisonInt
	s.WireLen = PoisonInt
	s.PayloadLen = PoisonInt
	s.Encap = true
	s.PktID = PoisonU64
	s.MsgID = PoisonU64
	s.MsgEnd = true
	s.MicroFlow = PoisonU64
	s.Branch = PoisonInt
	s.SentAt = PoisonTime
	s.ArrivedAt = PoisonTime
	s.LastStage = "POISONED"
	s.LastStageAt = PoisonTime
	s.QueuedAt = PoisonTime
	s.MemCharge = PoisonInt
	s.Accounted = true
	poisonArena(s.buf[:cap(s.buf)])
}

// poisonArena scribbles a full backing array (headroom and tailroom
// included) before the pool reclaims it.
func poisonArena(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}
