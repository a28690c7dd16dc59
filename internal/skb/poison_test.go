//go:build race || skbdebug

package skb

import (
	"testing"
)

// In -race (or skbdebug) builds Put scribbles poison values over the SKB, so
// any stale reference that survives Put reads obviously-wrong values instead
// of plausible stale ones. Get still hands back fully zeroed SKBs, so the
// poisoning is invisible to correct code — pooled and unpooled runs stay
// bit-identical.
func TestPutPoisonsRecycledSKB(t *testing.T) {
	if !poisonEnabled {
		t.Fatal("poisonEnabled must be true under this build tag")
	}
	p := &Pool{}
	s := p.Get()
	s.FlowID = 7
	s.Seq = 42
	s.Segs = 3
	p.Put(s)

	// s is now a stale reference; every field must read as poison.
	if s.FlowID != poisonU64 || s.Seq != poisonU64 || s.MsgID != poisonU64 {
		t.Errorf("stale u64 fields not poisoned: %+v", s)
	}
	if s.Segs != poisonInt || s.WireLen != poisonInt || s.Branch != poisonInt {
		t.Errorf("stale int fields not poisoned: %+v", s)
	}
	if s.SentAt != poisonTime || s.ArrivedAt != poisonTime {
		t.Errorf("stale time fields not poisoned: %+v", s)
	}
	if s.LastStage != "POISONED" {
		t.Errorf("stale LastStage = %q, want POISONED", s.LastStage)
	}
	if s.Data != nil {
		t.Errorf("stale Data not dropped: %v", s.Data)
	}

	// The poison must never leak through Get.
	s2 := p.Get()
	if s2 != s {
		t.Fatal("Get did not reuse the poisoned SKB")
	}
	if !logicallyZero(s2) {
		t.Errorf("Get returned poison residue: %+v", s2)
	}
}

// Put scribbles the FULL arena — headroom, window and tailroom, plus every
// arena chained by GRO merges — so a stale view into recycled backing
// bytes reads poisonByte, never plausible stale wire bytes.
func TestPutPoisonsFullArena(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	s.Reserve(8, 8)
	copy(s.Put(8), "ABCDEFGH")
	window := s.Data // stale view kept past Put
	arena := s.buf[:cap(s.buf)]

	other := p.Get()
	other.Proto = TCP
	other.Segs = 1
	other.Seq = 1
	s.Proto = TCP
	s.Segs = 1
	other.Reserve(0, 4)
	copy(other.Put(4), "WXYZ")
	chained := other.Data
	s.Merge(other)
	p.Put(other)
	p.Put(s)

	for i, b := range arena {
		if b != poisonByte {
			t.Fatalf("arena[%d] = %#x after Put, want poisonByte", i, b)
		}
	}
	for i, b := range window {
		if b != poisonByte {
			t.Fatalf("stale window[%d] = %#x after Put, want poisonByte", i, b)
		}
	}
	for i, b := range chained {
		if b != poisonByte {
			t.Fatalf("chained view[%d] = %#x after Put, want poisonByte", i, b)
		}
	}
}
