package skb

import (
	"reflect"
	"testing"
)

func TestPoolReusesAndZeroes(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	if p.Allocs != 1 {
		t.Fatalf("Allocs = %d after first Get, want 1", p.Allocs)
	}
	s.FlowID = 7
	s.Seq = 99
	s.Segs = 3
	s.MsgEnd = true
	s.LastStage = "gro"
	s.Data = []byte{1, 2, 3}
	p.Put(s)
	if p.Puts != 1 || p.Free() != 1 {
		t.Fatalf("Puts = %d, Free = %d after Put, want 1 and 1", p.Puts, p.Free())
	}

	s2 := p.Get()
	if s2 != s {
		t.Fatal("Get did not reuse the recycled SKB")
	}
	if p.Allocs != 1 {
		t.Errorf("Allocs = %d after reuse, want still 1", p.Allocs)
	}
	if p.Free() != 0 {
		t.Errorf("Free = %d after reuse, want 0", p.Free())
	}
	// Reuse must be logically indistinguishable from a fresh allocation:
	// every field zeroed, no matter what the previous owner (or the
	// poisoner) left. Only buffer capacity (arena, frag slice) survives.
	if !logicallyZero(s2) {
		t.Errorf("Get returned a non-zeroed SKB: %+v", s2)
	}
}

// logicallyZero reports whether the SKB is indistinguishable from &SKB{}
// to any reader of its logical state: all exported fields zero, no window,
// no frags. Retained capacity (arena bytes, frag slice capacity) is
// explicitly allowed — that is the pool's whole point.
func logicallyZero(s *SKB) bool {
	c := *s
	c.buf, c.off, c.frags = nil, 0, nil
	return len(s.Data) == 0 && len(s.frags) == 0 && s.off == 0 &&
		reflect.DeepEqual(c, SKB{Data: c.Data})
}

// Arena capacity survives Put/Get so the wire-mode steady state allocates
// nothing: a recycled SKB Reserves into the same backing array.
func TestPoolRetainsArenaAcrossReuse(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	s.Reserve(50, 1400)
	copy(s.Put(3), []byte{1, 2, 3})
	arena := &s.buf[0]
	p.Put(s)

	s2 := p.Get()
	if s2 != s {
		t.Fatal("Get did not reuse the recycled SKB")
	}
	if !logicallyZero(s2) {
		t.Fatalf("recycled SKB not logically zero: %+v", s2)
	}
	s2.Reserve(50, 1400)
	if &s2.buf[0] != arena {
		t.Error("Reserve after reuse did not reuse the retained arena")
	}
}

// Put reclaims the arenas GRO chained onto a head (the absorbed SKBs'
// backing arrays) and Get re-arms arena-less SKBs from that reserve, so
// merge-heavy steady states stay allocation-free too.
func TestPoolReclaimsFragArenas(t *testing.T) {
	p := &Pool{}
	head, tail := p.Get(), p.Get()
	head.Proto, tail.Proto = TCP, TCP
	head.Segs, tail.Segs = 1, 1
	tail.Seq = 1
	head.Reserve(0, 4)
	copy(head.Put(4), "abcd")
	tail.Reserve(0, 4)
	copy(tail.Put(4), "efgh")
	tailArena := &tail.buf[0]

	head.Merge(tail)
	if tail.Data != nil || tail.buf != nil {
		t.Fatal("Merge left bytes on the absorbed SKB")
	}
	p.Put(tail) // GRO recycles the absorbed skb: no arena to reclaim
	p.Put(head) // terminal Put reclaims both head arena and chained arena
	if len(p.arenas) != 1 {
		t.Fatalf("pool reclaimed %d chained arenas, want 1", len(p.arenas))
	}

	// The arena-less SKB (tail went in bufferless) gets re-armed from the
	// reclaimed reserve on the next Get that needs one.
	var reArmed bool
	for i := 0; i < 2; i++ {
		s := p.Get()
		if s.buf != nil && &s.buf[0] == tailArena {
			reArmed = true
		}
	}
	if !reArmed {
		t.Error("no recycled SKB was re-armed with the reclaimed arena")
	}
}

// A miss — the free list is empty — still arms its fresh SKB from the
// reclaimed frag arenas, so Reserve reuses a spare arena instead of
// allocating one while it sits idle.
func TestPoolMissReusesReclaimedArena(t *testing.T) {
	p := &Pool{}
	head, tail := p.Get(), p.Get()
	head.Proto, tail.Proto = TCP, TCP
	head.Segs, tail.Segs = 1, 1
	tail.Seq = 1
	head.Reserve(0, 4)
	copy(head.Put(4), "abcd")
	tail.Reserve(0, 4)
	copy(tail.Put(4), "efgh")
	tailArena := &tail.buf[0]
	head.Merge(tail)
	p.Put(head) // the chained arena goes to the reserve; tail is dropped
	if len(p.arenas) != 1 {
		t.Fatalf("pool reclaimed %d chained arenas, want 1", len(p.arenas))
	}
	for p.Free() > 0 {
		p.Get()
	}

	allocs := p.Allocs
	s := p.Get()
	if p.Allocs != allocs+1 {
		t.Fatalf("Get with an empty free list was not a miss (Allocs %d -> %d)", allocs, p.Allocs)
	}
	if s.buf == nil || &s.buf[0] != tailArena {
		t.Fatal("miss did not arm the fresh SKB with the reclaimed arena")
	}
	if len(p.arenas) != 0 {
		t.Errorf("reserve holds %d arenas after the miss took one, want 0", len(p.arenas))
	}
	if !logicallyZero(s) {
		t.Errorf("miss returned a non-zeroed SKB: %+v", s)
	}
	s.Reserve(0, 4)
	if &s.buf[0] != tailArena {
		t.Error("Reserve allocated a fresh arena instead of reusing the reclaimed one")
	}
}

func TestPoolDataDroppedOnPut(t *testing.T) {
	p := &Pool{}
	s := p.Get()
	s.Data = []byte{0xaa, 0xbb}
	p.Put(s)
	if got := p.Get(); got.Data != nil {
		t.Errorf("recycled SKB still holds wire bytes: %v", got.Data)
	}
}

// All Pool methods tolerate a nil receiver, so components can be wired with
// no pool at all and still call Get/Put unconditionally.
func TestPoolNilReceiver(t *testing.T) {
	var p *Pool
	s := p.Get()
	if s == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.Put(s) // must not panic
	if p.Free() != 0 {
		t.Errorf("nil pool Free = %d, want 0", p.Free())
	}
}

func TestPoolPutNil(t *testing.T) {
	p := &Pool{}
	p.Put(nil)
	if p.Puts != 0 || p.Free() != 0 {
		t.Errorf("Put(nil) counted: Puts = %d, Free = %d, want 0 and 0", p.Puts, p.Free())
	}
}
