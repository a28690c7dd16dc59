package overlay

import (
	"fmt"
	"testing"

	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// TestDebugStages prints per-stage worker statistics for one scenario
// (development aid; run with -run DebugStages -v).
func TestDebugStages(t *testing.T) {
	if testing.Short() {
		t.Skip("debug tool")
	}
	sc := Scenario{
		System: steering.RPS, Proto: skb.UDP, MsgSize: 65536,
		Warmup: 2 * sim.Millisecond, Measure: 8 * sim.Millisecond,
	}.withDefaults()
	h := testHost(sc, Probes{})
	r := h.run()
	fmt.Println(r, "drops:", r.DropsRing, r.DropsSock, r.DropsBacklog)
	for _, st := range h.stages {
		w := st.worker
		fmt.Printf("stage %-14s core=%d enq=%d proc=%d drop=%d depth=%d/%d polls=%d\n",
			st.name, st.core().ID, w.Enqueued, w.Processed, w.Dropped, w.Len(), w.MaxDepth, w.PollRounds)
	}
	for _, fp := range h.flows {
		fmt.Printf("sock bytes=%d msgs=%d drop=%d qlen=%d\n", fp.sock.Bytes, fp.sock.Msgs, fp.sock.Dropped(), fp.sock.Worker().Len())
	}
	for i, c := range h.cores {
		fmt.Printf("core %d busy=%v tags=%v\n", i, c.BusyTotal(), c.BusyByTag())
	}
}
