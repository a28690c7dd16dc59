package traffic

import "encoding/binary"

// FillPattern writes the deterministic wire-mode payload for a segment
// with arrival sequence seq directly into buf — typically a tailroom
// region a sender just skb.Put into its headroom-reserved arena, so the
// application bytes are born in the buffer they will travel in and no
// staging copy ever exists. The pattern (seq+i per byte) is recognizable
// end to end: socket-side verification and capture tooling can spot a
// byte that moved.
//
// It stores eight bytes at a time: lane k of w holds byte(seq+i+k), and a
// carry-free lane-wise add of 8 advances all eight lanes together. A
// byte-at-a-time loop was the hottest code in wire mode, and its cost rose
// by more than half when unrelated edits moved it across a 64-byte line.
func FillPattern(buf []byte, seq uint64) {
	const (
		ones  = 0x0101010101010101
		lanes = 0x0706050403020100 // k in lane k
	)
	w := addLanes(uint64(byte(seq))*ones, lanes)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
		w = addLanes(w, 8*ones)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(seq + uint64(i))
	}
}

// addLanes adds a and b as eight independent bytes, each wrapping mod 256.
func addLanes(a, b uint64) uint64 {
	const high = 0x8080808080808080
	return ((a &^ high) + (b &^ high)) ^ ((a ^ b) & high)
}
