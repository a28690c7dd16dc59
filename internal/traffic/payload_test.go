package traffic

import "testing"

// TestFillPatternMatchesBytewise pins the table-and-doubling fill to the
// byte-at-a-time definition for every phase, across short tails, one
// period, the table's length, an MSS and the largest IP payload.
func TestFillPatternMatchesBytewise(t *testing.T) {
	var seqs []uint64
	for r := uint64(0); r < 256; r++ {
		seqs = append(seqs, r)
	}
	seqs = append(seqs, 1<<32-3, 1<<64-5)
	lens := []int{255, 256, 257, 511, 512, 513, len(pattern) - 256, len(pattern) - 1,
		len(pattern), len(pattern) + 1, 2*len(pattern) + 7, MSS, 65535}
	for n := 0; n <= 70; n++ {
		lens = append(lens, n)
	}
	got := make([]byte, 65536)
	for _, seq := range seqs {
		for _, n := range lens {
			got[n] = 0xEE // sentinel past the window
			FillPattern(got[:n], seq)
			for i := 0; i < n; i++ {
				if want := byte(seq + uint64(i)); got[i] != want {
					t.Fatalf("seq %d len %d: byte %d = %#x, want %#x", seq, n, i, got[i], want)
				}
			}
			if got[n] != 0xEE {
				t.Fatalf("seq %d len %d: wrote past the buffer", seq, n)
			}
		}
	}
}

// BenchmarkFillPatternMSS fills one MSS payload, the wire-mode sender's
// per-segment byte work.
func BenchmarkFillPatternMSS(b *testing.B) {
	buf := make([]byte, MSS)
	b.SetBytes(MSS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillPattern(buf, uint64(i))
	}
}
