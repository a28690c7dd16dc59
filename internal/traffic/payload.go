package traffic

// pattern is the payload pattern at phase 0, pattern[j] = byte(j): period
// 256, long enough that one copy at any phase fills an MSS payload.
var pattern = func() (p [2048]byte) {
	for j := range p {
		p[j] = byte(j)
	}
	return p
}()

// FillPattern writes the deterministic wire-mode payload for a segment
// with arrival sequence seq directly into buf — typically a tailroom
// region a sender just skb.Put into its headroom-reserved arena, so the
// application bytes are born in the buffer they will travel in and no
// staging copy ever exists. The pattern (seq+i per byte) makes a moved
// byte visible in a capture. The pcap SHA-256 goldens pin these bytes;
// the socket only checks that frames parse and carry the accounted
// payload length. The fill is one table copy at phase byte(seq), then
// doubling copies of the buffer's own whole periods past the table.
func FillPattern(buf []byte, seq uint64) {
	n := copy(buf, pattern[byte(seq):])
	for n < len(buf) {
		n += copy(buf[n:], buf[n%256:n])
	}
}
