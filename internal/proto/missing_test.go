package proto

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mflow/internal/skb"
)

// missingReference is the hole-map walk as it was before Missing moved to
// receiver-owned scratch and slices.SortFunc: fresh slices on every call
// and a reflection-based sort.Slice. It is the oracle the differential
// test holds Missing to.
func missingReference(r *TCPReceiver, max int) []uint64 {
	if len(r.ooo) == 0 || max <= 0 {
		return nil
	}
	covered := make([][2]uint64, 0, len(r.ooo))
	for _, sk := range r.ooo {
		covered = append(covered, [2]uint64{sk.Seq, sk.EndSeq()})
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i][0] < covered[j][0] })
	var missing []uint64
	next := r.Expected
	for _, iv := range covered {
		for ; next < iv[0]; next++ {
			missing = append(missing, next)
			if len(missing) >= max {
				return missing
			}
		}
		if iv[1] > next {
			next = iv[1]
		}
	}
	return missing
}

// checkMissingAgainstReference drives a receiver with a random arrival
// stream — out-of-order segments, GRO super-packets that overlap parked
// ranges, duplicates and hole fills — and after every arrival compares
// Missing with the reference at two budgets in a row, so the second call
// runs on scratch the first one left behind.
func checkMissingAgainstReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := &TCPReceiver{Deliver: func(*skb.SKB) {}, OFOCap: rng.Intn(3) * 64}
	for i := 0; i < 400; i++ {
		seq := r.Expected + uint64(rng.Intn(300))
		switch rng.Intn(8) {
		case 0, 1:
			seq = r.Expected // fill the front hole and drain
		case 2:
			if r.Expected > 0 { // stale duplicate
				seq = r.Expected - 1 - uint64(rng.Intn(int(min(r.Expected, 20))))
			}
		}
		segs := 1
		if rng.Intn(3) == 0 {
			segs = 1 + rng.Intn(44)
		}
		r.Rx(seg(seq, segs), nil)
		for k := 0; k < 2; k++ {
			max := rng.Intn(601)
			want := missingReference(r, max)
			if got := r.Missing(max); !slices.Equal(got, want) {
				t.Fatalf("seed %d arrival %d max %d: Missing = %v, want %v", seed, i, max, got, want)
			}
		}
	}
}

// TestMissingMatchesReference holds the scratch-backed Missing to the
// sort.Slice implementation it replaced over many random OFO histories.
func TestMissingMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkMissingAgainstReference(t, seed)
	}
}

func FuzzMissingMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkMissingAgainstReference)
}

// parkHoles returns a receiver with n single segments parked at every
// other sequence above Expected, so Missing reports n holes.
func parkHoles(n int) *TCPReceiver {
	r := &TCPReceiver{Deliver: func(*skb.SKB) {}}
	for i := 0; i < n; i++ {
		r.Rx(seg(uint64(2*i+1), 1), nil)
	}
	return r
}

// TestMissingDoesNotAllocate pins a warm Missing call at zero
// allocations: the sort and both result slices reuse receiver scratch.
func TestMissingDoesNotAllocate(t *testing.T) {
	r := parkHoles(64)
	if got := len(r.Missing(128)); got != 64 {
		t.Fatalf("Missing found %d holes, want 64", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Missing(128) }); allocs != 0 {
		t.Errorf("warm Missing allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkTCPMissing is the SACK hole map a recovery sweep queries on
// every duplicate ACK, over 64 parked segments.
func BenchmarkTCPMissing(b *testing.B) {
	r := parkHoles(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Missing(128)
	}
}
