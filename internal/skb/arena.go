package skb

// This file gives SKB a kernel-shaped buffer model. Like struct sk_buff's
// head/data/tail/end pointers, an SKB owns at most one backing array (the
// arena) and exposes a window into it:
//
//	buf:  [ headroom | Data window | tailroom ]
//	       ^0         ^off          ^off+len(Data)    ^len(buf)
//
// Reserve sizes the arena and positions an empty window; Push/Pull move the
// window's front edge (skb_push/skb_pull — encap and decap become O(1)
// offset arithmetic over reserved headroom instead of allocate-and-copy);
// Put/TrimFront move the tail/front without reallocating. GRO chains whole
// absorbed windows as frags (the kernel's frag-list shape) so a merge never
// copies payload; the single terminal reader walks Parts or materializes
// with Bytes.
//
// Compatibility: code may still assign a foreign slice directly
// (s.Data = b). Such a window has no arena (buf == nil, zero headroom);
// the first Push/Put adopts it into a fresh arena, so the operations are
// total either way.

// DefaultHeadroom is the front reserve granted when an operation must
// create an arena for a window that was not built via Reserve. It covers
// the overlay's worst case (50 bytes of outer headers) with slack, the same
// role NET_SKB_PAD plays in the kernel.
const DefaultHeadroom = 64

// minArena is the smallest arena allocated; sizes grow in powers of two so
// pooled arenas are interchangeable across slightly different frames.
const minArena = 256

// frag is one chained reference to bytes merged from an absorbed SKB:
// view is the logical byte run, arena the backing array stolen with it
// (nil when the view was foreign). The pool reclaims arenas on Put.
type frag struct {
	view  []byte
	arena []byte
}

// arenaFor returns a power-of-two sized backing array of at least need
// bytes.
func arenaFor(need int) []byte {
	n := minArena
	for n < need {
		n <<= 1
	}
	return make([]byte, n)
}

// Reserve arranges an empty Data window with at least headroom bytes in
// front of it and size bytes of tailroom behind it, reusing the current
// arena when it is large enough (the pooled steady state) and allocating a
// fresh one otherwise. Any previous window contents — frag chain included
// — are discarded.
func (s *SKB) Reserve(headroom, size int) {
	if headroom < 0 || size < 0 {
		panic("skb: Reserve with negative sizes")
	}
	for i := range s.frags {
		s.frags[i] = frag{}
	}
	s.frags = s.frags[:0]
	if need := headroom + size; cap(s.buf) < need {
		s.buf = arenaFor(need)
	} else {
		s.buf = s.buf[:cap(s.buf)]
	}
	s.off = headroom
	s.Data = s.buf[headroom:headroom]
}

// Headroom returns the bytes available in front of the window (0 for a
// foreign window).
func (s *SKB) Headroom() int {
	if s.buf == nil {
		return 0
	}
	return s.off
}

// Tailroom returns the bytes available behind the window (0 for a foreign
// window).
func (s *SKB) Tailroom() int {
	if s.buf == nil {
		return 0
	}
	return len(s.buf) - s.off - len(s.Data)
}

// grow reallocates the arena so the current window bytes survive with at
// least head bytes of headroom and tail bytes of tailroom. This is the
// cold path — steady-state callers Reserve enough room up front.
func (s *SKB) grow(head, tail int) {
	ln := len(s.Data)
	nb := arenaFor(head + ln + tail)
	copy(nb[head:], s.Data)
	s.buf = nb
	s.off = head
	s.Data = nb[head : head+ln]
}

// adopt moves a foreign window (s.Data set directly, no arena) into a
// fresh arena with the given headroom, preserving its bytes.
func (s *SKB) adopt(headroom int) {
	data := s.Data
	s.buf = arenaFor(headroom + len(data))
	s.off = headroom
	s.Data = s.buf[headroom : headroom+len(data)]
	copy(s.Data, data)
}

// Push extends the window n bytes at the front — skb_push — and returns
// the newly exposed front region for the caller to fill (it is not
// zeroed). O(1) while headroom suffices; otherwise the arena grows.
func (s *SKB) Push(n int) []byte {
	if n < 0 {
		panic("skb: Push with negative size")
	}
	if s.buf == nil {
		s.adopt(n + DefaultHeadroom)
	}
	if s.off < n {
		// Grow for the window and the requested headroom only. Deliberately
		// NOT preserving the current tailroom: arenaFor's power-of-two
		// rounding already leaves slack, and carrying existing slack into
		// the next size request would compound — repeated growing pushes
		// would double the arena each time regardless of how many bytes
		// are actually live.
		s.grow(n+DefaultHeadroom, 0)
	}
	ln := len(s.Data)
	s.off -= n
	s.Data = s.buf[s.off : s.off+ln+n]
	return s.Data[:n]
}

// Pull shrinks the window n bytes at the front — skb_pull — returning the
// removed front region (still aliasing the arena, valid until the next
// front operation). Always O(1). Panics if n exceeds the window: callers
// validate headers before pulling them.
func (s *SKB) Pull(n int) []byte {
	if n < 0 || n > len(s.Data) {
		panic("skb: Pull beyond window")
	}
	removed := s.Data[:n]
	if s.buf == nil {
		s.Data = s.Data[n:]
		return removed
	}
	ln := len(s.Data)
	s.off += n
	s.Data = s.buf[s.off : s.off+ln-n]
	return removed
}

// TrimFront drops n bytes from the front of the window (Pull without the
// returned region).
func (s *SKB) TrimFront(n int) { s.Pull(n) }

// Put extends the window n bytes at the tail — skb_put — and returns the
// newly exposed tail region for the caller to fill (it is not zeroed).
// O(1) while tailroom suffices; otherwise the arena grows.
func (s *SKB) Put(n int) []byte {
	if n < 0 {
		panic("skb: Put with negative size")
	}
	if s.buf == nil {
		if s.Data == nil {
			s.Reserve(DefaultHeadroom, n)
		} else {
			s.adopt(DefaultHeadroom)
		}
	}
	if s.Tailroom() < n {
		s.grow(s.off, n)
	}
	ln := len(s.Data)
	s.Data = s.buf[s.off : s.off+ln+n]
	return s.Data[ln:]
}

// Parts returns the number of discrete byte regions the SKB carries: the
// head window plus one per chained frag. Zero when the SKB carries no
// bytes at all (synthetic runs).
func (s *SKB) Parts() int {
	if s.Data == nil && len(s.frags) == 0 {
		return 0
	}
	return 1 + len(s.frags)
}

// Part returns the i'th byte region: 0 is the head window, 1..Parts()-1 are
// the chained frags in merge order. Each part is one complete wire frame
// on the GRO path.
func (s *SKB) Part(i int) []byte {
	if i == 0 {
		return s.Data
	}
	return s.frags[i-1].view
}

// TrimPartFront drops n bytes from the front of part i — the per-frame
// decap primitive: after validating a frame's outer headers the caller
// trims them off with pointer arithmetic, head window and frags alike.
func (s *SKB) TrimPartFront(i, n int) {
	if i == 0 {
		s.TrimFront(n)
		return
	}
	s.frags[i-1].view = s.frags[i-1].view[n:]
}

// Bytes returns the SKB's logical byte stream. With no frag chain this is
// the head window itself — no copy; with frags the parts are materialized
// into a single fresh slice. Only terminal readers (socket verification
// fallbacks, captures, tests) should call it — the hot path walks Parts.
func (s *SKB) Bytes() []byte {
	if len(s.frags) == 0 {
		return s.Data
	}
	n := len(s.Data)
	for _, f := range s.frags {
		n += len(f.view)
	}
	out := make([]byte, 0, n)
	out = append(out, s.Data...)
	for _, f := range s.frags {
		out = append(out, f.view...)
	}
	return out
}

// SetBytes replaces the SKB's byte stream with a foreign slice, dropping
// the arena and any frag chain. Cold path for callers that rebuilt the
// stream elsewhere; pooled capacity is lost to the garbage collector.
func (s *SKB) SetBytes(b []byte) {
	s.buf = nil
	s.off = 0
	for i := range s.frags {
		s.frags[i] = frag{}
	}
	s.frags = s.frags[:0]
	s.Data = b
}

// Clone returns a deep copy of the SKB: metadata field-for-field, byte
// stream (head window plus any frag chain, linearized) copied into the
// clone's own arena with the head window's headroom preserved so the copy
// can be pushed/pulled like the original. CP is shared, matching the
// previous shallow-copy semantics.
func (s *SKB) Clone() *SKB {
	c := &SKB{}
	*c = *s
	c.buf, c.off, c.Data, c.frags = nil, 0, nil, nil
	if s.Parts() > 0 {
		total := len(s.Data)
		for _, f := range s.frags {
			total += len(f.view)
		}
		c.Reserve(s.Headroom(), total)
		b := c.Put(total)
		n := copy(b, s.Data)
		for _, f := range s.frags {
			n += copy(b[n:], f.view)
		}
	}
	return c
}
