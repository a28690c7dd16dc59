package obs

import (
	"strings"
	"testing"
)

func TestNameCanonical(t *testing.T) {
	if got := Name("x"); got != "x" {
		t.Errorf("bare name: %q", got)
	}
	a := Name("stage_gap", "from", "nic", "to", "alloc")
	b := Name("stage_gap", "to", "alloc", "from", "nic")
	if a != b {
		t.Errorf("label order must not matter: %q vs %q", a, b)
	}
	if a != "stage_gap{from=nic,to=alloc}" {
		t.Errorf("canonical form wrong: %q", a)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	c1 := r.Counter("drops", "queue", "ring")
	c1.Add(3)
	c2 := r.Counter("drops", "queue", "ring")
	if c1 != c2 || c2.Value() != 3 {
		t.Error("same name+labels must resolve to the same counter")
	}
	if r.Counter("drops", "queue", "other") == c1 {
		t.Error("different labels must resolve to different counters")
	}
	h1 := r.Histogram("lat", "stage", "gro")
	h1.Record(10)
	if r.Histogram("lat", "stage", "gro").Count() != 1 {
		t.Error("same histogram expected")
	}
	g := r.Gauge("speed")
	g.Set(2.5)
	if r.Gauge("speed").Value() != 2.5 {
		t.Error("same gauge expected")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Record(1)
	r.GapTo("a")("b", 1)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
}

func TestSnapshotAndDiff(t *testing.T) {
	r := New()
	c := r.Counter("pkts")
	h := r.Histogram("lat")
	g := r.Gauge("util")
	c.Add(10)
	h.Record(100)
	h.Record(200)
	g.Set(0.5)

	s0 := r.Snapshot()
	c.Add(5)
	h.RecordN(300, 3)
	g.Set(0.9)
	s1 := r.Snapshot()

	d := s1.Diff(s0)
	if m, _ := d.Get("pkts"); m.Value != 5 {
		t.Errorf("counter diff: %+v", m)
	}
	if m, _ := d.Get("lat"); m.Count != 3 || m.Sum != 900 || m.Mean != 300 {
		t.Errorf("histogram diff: %+v", m)
	}
	if m, _ := d.Get("util"); m.Value != 0.9 {
		t.Errorf("gauge diff keeps latest: %+v", m)
	}
	// A metric born after the baseline snapshot is taken whole.
	r.Counter("late").Add(7)
	d2 := r.Snapshot().Diff(s0)
	if m, _ := d2.Get("late"); m.Value != 7 {
		t.Errorf("new metric diff: %+v", m)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("h").Record(50)
	var w1, w2 strings.Builder
	if err := r.Snapshot().WriteJSON(&w1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Error("JSON rendering must be deterministic")
	}
	if !strings.Contains(w1.String(), `"kind": "histogram"`) {
		t.Errorf("missing histogram kind:\n%s", w1.String())
	}
}

func TestGapToCachesAndRecords(t *testing.T) {
	r := New()
	rec := r.GapTo("merge")
	rec("alloc", 10)
	rec("alloc", 20)
	rec("gro", 5)
	if n := r.Histogram("stage_gap", "from", "alloc", "to", "merge").Count(); n != 2 {
		t.Errorf("alloc→merge count %d", n)
	}
	if n := r.Histogram("stage_gap", "from", "gro", "to", "merge").Count(); n != 1 {
		t.Errorf("gro→merge count %d", n)
	}
}
