package harness

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesSubmissionOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 100} {
		out := Map(workers, items, func(_ int, v int) int { return v * v })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	items := make([]int, 50)
	Map(workers, items, func(_ int, _ int) int {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return 0
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool width %d", p, workers)
	}
}

func TestMapSerialRunsInline(t *testing.T) {
	// workers == 1 must execute on the calling goroutine in item order —
	// the serial reference path.
	var order []int
	var mu sync.Mutex
	Map(1, []int{0, 1, 2, 3}, func(i int, _ int) int {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return 0
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	items := make([]uint64, 64)
	for i := range items {
		items[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	fn := func(_ int, v uint64) uint64 { // splitmix-style pure function
		v += 0x9e3779b97f4a7c15
		v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
		return v ^ (v >> 27)
	}
	serial := Map(1, items, fn)
	parallel := Map(8, items, fn)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %x != parallel %x", i, serial[i], parallel[i])
		}
	}
}

func TestMapRepanicsLowestIndex(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic not propagated")
		}
		msg, _ := p.(string)
		if !strings.Contains(msg, "job 3") {
			t.Fatalf("want lowest-index panic (job 3), got %v", p)
		}
	}()
	Map(4, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(i int, _ int) int {
		if i >= 3 {
			panic("boom")
		}
		return 0
	})
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be >= 1")
	}
	if out := Map(0, []int{1, 2}, func(_ int, v int) int { return v }); len(out) != 2 {
		t.Fatal("workers<=0 must still run everything")
	}
}
