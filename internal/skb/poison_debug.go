//go:build race || skbdebug

package skb

import "mflow/internal/sim"

// poisonEnabled reports whether Pool.Put scribbles over recycled SKBs.
// It is true under -race or the skbdebug build tag.
const poisonEnabled = true

// Poison values chosen to be loud: a flow/seq/time of this magnitude never
// occurs in a real run, so a stale reference read after Put is unmistakable
// in test failures and trace output.
const (
	poisonU64  = 0xdead_beef_dead_beef
	poisonInt  = -0x5eed
	poisonTime = sim.Time(-0x7fff_ffff_ffff)
	// poisonByte fills every recycled arena byte: a frame read after Put
	// parses as garbage (bad checksums, bad lengths) instead of stale
	// wire bytes.
	poisonByte = 0xA5
)

func poison(s *SKB) {
	s.FlowID = poisonU64
	s.Proto = Proto(poisonInt)
	s.Seq = poisonU64
	s.Segs = poisonInt
	s.WireLen = poisonInt
	s.PayloadLen = poisonInt
	s.Encap = true
	s.PktID = poisonU64
	s.MsgID = poisonU64
	s.MsgEnd = true
	s.MicroFlow = poisonU64
	s.Branch = poisonInt
	s.SentAt = poisonTime
	s.ArrivedAt = poisonTime
	s.LastStage = "POISONED"
	s.LastStageAt = poisonTime
	s.QueuedAt = poisonTime
	s.MemCharge = poisonInt
	s.Accounted = true
	poisonArena(s.buf[:cap(s.buf)])
}

// poisonArena scribbles a full backing array (headroom and tailroom
// included) before the pool reclaims it.
func poisonArena(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
