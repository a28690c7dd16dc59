package skb

import (
	"bytes"
	"testing"
)

func TestReservePositionsEmptyWindow(t *testing.T) {
	s := &SKB{}
	s.Reserve(50, 1400)
	if s.Data == nil || len(s.Data) != 0 {
		t.Fatalf("Reserve window = %v, want empty non-nil", s.Data)
	}
	if s.Headroom() != 50 {
		t.Errorf("Headroom = %d, want 50", s.Headroom())
	}
	if s.Tailroom() < 1400 {
		t.Errorf("Tailroom = %d, want >= 1400", s.Tailroom())
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	s := &SKB{}
	s.Reserve(50, 100)
	copy(s.Put(4), "body")
	copy(s.Push(3), "hdr")
	if string(s.Data) != "hdrbody" {
		t.Fatalf("window after Push = %q", s.Data)
	}
	if s.Headroom() != 47 {
		t.Errorf("Headroom after Push(3) = %d, want 47", s.Headroom())
	}
	arena := &s.buf[0]
	if got := s.Pull(3); string(got) != "hdr" {
		t.Errorf("Pull returned %q, want hdr", got)
	}
	if string(s.Data) != "body" || s.Headroom() != 50 {
		t.Errorf("window after Pull = %q headroom %d", s.Data, s.Headroom())
	}
	if &s.buf[0] != arena {
		t.Error("Push/Pull reallocated the arena")
	}
}

func TestTrimFrontDropsBytes(t *testing.T) {
	s := &SKB{}
	s.Reserve(0, 8)
	copy(s.Put(6), "abcdef")
	s.TrimFront(2)
	if string(s.Data) != "cdef" {
		t.Errorf("window after TrimFront = %q", s.Data)
	}
}

func TestPushGrowsWhenHeadroomShort(t *testing.T) {
	s := &SKB{}
	s.Reserve(2, 4)
	copy(s.Put(4), "body")
	copy(s.Push(10), "0123456789") // headroom 2 < 10: must grow, keep bytes
	if string(s.Data) != "0123456789body" {
		t.Errorf("window after growing Push = %q", s.Data)
	}
}

func TestPutGrowsWhenTailroomShort(t *testing.T) {
	s := &SKB{}
	s.Reserve(4, 2)
	copy(s.Put(2), "ab")
	copy(s.Put(300), bytes.Repeat([]byte{'x'}, 300))
	if len(s.Data) != 302 || string(s.Data[:2]) != "ab" {
		t.Errorf("window after growing Put = %d bytes, head %q", len(s.Data), s.Data[:2])
	}
	if s.Headroom() != 4 {
		t.Errorf("grow lost headroom: %d, want 4", s.Headroom())
	}
}

// Direct assignment of a foreign slice (the pre-arena idiom) keeps
// working: the first Push adopts it into a fresh arena with default
// headroom, preserving bytes.
func TestForeignDataAdoptedOnPush(t *testing.T) {
	s := &SKB{Data: []byte("inner")}
	if s.Headroom() != 0 || s.Tailroom() != 0 {
		t.Fatal("foreign window must report zero head/tailroom")
	}
	copy(s.Push(4), "out:")
	if string(s.Data) != "out:inner" {
		t.Errorf("window after adopting Push = %q", s.Data)
	}
	if s.buf == nil {
		t.Error("Push did not adopt the foreign window into an arena")
	}
}

func TestForeignDataPullIsZeroCopy(t *testing.T) {
	backing := []byte("hdrpayload")
	s := &SKB{Data: backing}
	s.Pull(3)
	if string(s.Data) != "payload" {
		t.Fatalf("window after foreign Pull = %q", s.Data)
	}
	if &s.Data[0] != &backing[3] {
		t.Error("foreign Pull copied instead of reslicing")
	}
}

func TestPartsAndTrimPartFront(t *testing.T) {
	a, b := seg(1, 0), seg(1, 1)
	a.Data = []byte("xxAAA")
	b.Data = []byte("yyBBB")
	a.Merge(b)
	if a.Parts() != 2 {
		t.Fatalf("Parts = %d, want 2", a.Parts())
	}
	a.TrimPartFront(0, 2)
	a.TrimPartFront(1, 2)
	if string(a.Part(0)) != "AAA" || string(a.Part(1)) != "BBB" {
		t.Errorf("parts after trim: %q %q", a.Part(0), a.Part(1))
	}
	if string(a.Bytes()) != "AAABBB" {
		t.Errorf("stream after per-part trim: %q", a.Bytes())
	}
}

func TestPartsZeroWithoutBytes(t *testing.T) {
	s := seg(1, 0)
	if s.Parts() != 0 {
		t.Errorf("Parts on byte-less skb = %d, want 0", s.Parts())
	}
}

func TestBytesNoChainIsWindow(t *testing.T) {
	s := &SKB{}
	s.Reserve(0, 4)
	copy(s.Put(4), "abcd")
	if got := s.Bytes(); &got[0] != &s.Data[0] {
		t.Error("Bytes copied despite having no frag chain")
	}
}

func TestSetBytesDropsArenaAndChain(t *testing.T) {
	a, b := seg(1, 0), seg(1, 1)
	a.Data, b.Data = []byte{1}, []byte{2}
	a.Merge(b)
	a.SetBytes([]byte{9, 9})
	if a.Parts() != 1 || string(a.Bytes()) != "\x09\x09" {
		t.Errorf("SetBytes left state: parts=%d bytes=%v", a.Parts(), a.Bytes())
	}
	if a.buf != nil || a.off != 0 {
		t.Error("SetBytes kept the arena")
	}
}

func TestCloneDeepCopiesStream(t *testing.T) {
	a, b := seg(1, 0), seg(1, 1)
	a.Reserve(10, 4)
	copy(a.Put(3), "AAA")
	b.Data = []byte("BB")
	a.Merge(b)

	c := a.Clone()
	if string(c.Bytes()) != "AAABB" {
		t.Fatalf("clone stream = %q", c.Bytes())
	}
	if c.Headroom() != 10 {
		t.Errorf("clone headroom = %d, want 10 (preserved)", c.Headroom())
	}
	if len(c.frags) != 0 {
		t.Errorf("clone has %d frags, want linearized 0", len(c.frags))
	}
	// Mutating the clone must not touch the original and vice versa.
	c.Data[0] = 'Z'
	if a.Data[0] != 'A' {
		t.Error("clone shares bytes with the original")
	}
	if a.Segs != c.Segs || a.WireLen != c.WireLen || a.FlowID != c.FlowID {
		t.Error("clone metadata differs")
	}
}

func TestCloneByteLess(t *testing.T) {
	s := seg(4, 2)
	c := s.Clone()
	if c.Data != nil || c.Parts() != 0 {
		t.Errorf("byte-less clone grew bytes: %+v", c)
	}
	if c.FlowID != 4 || c.Seq != 2 {
		t.Error("byte-less clone lost metadata")
	}
}
