package traffic

import "testing"

// TestFillPatternMatchesBytewise pins the word-at-a-time fill to the
// byte-at-a-time definition across tails, lane wraps and sequence wraps.
func TestFillPatternMatchesBytewise(t *testing.T) {
	seqs := []uint64{0, 1, 7, 120, 248, 250, 255, 256, 1<<32 - 3, 1<<64 - 5}
	for _, seq := range seqs {
		for n := 0; n <= 70; n++ {
			got := make([]byte, n+1)
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
