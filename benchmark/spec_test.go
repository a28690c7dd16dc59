package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricsMatchBenchmarkJSON pins the metric names and units the
// command prints, and its workload names, to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	toSpec := func(ms []metric) []metricSpec {
		out := make([]metricSpec, len(ms))
		for i, m := range ms {
			out[i] = metricSpec{m.Name, m.Unit}
		}
		return out
	}
	if got := toSpec(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, command prints %v", got, endToEnd)
	}
	if got := toSpec(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, command prints %v", got, perLayer)
	}
	var got, want [][2]string
	for _, w := range spec.Workloads {
		got = append(got, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		want = append(want, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads in BENCHMARK.json = %q, command runs %q", got, want)
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // two points: Python extrapolates

		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := boundSpec{Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	cases := []struct {
		name    string
		a, c    []float64
		verdict string
	}{
		{"same", steady, steady, "no regression"},
		{"faster", steady, scale(steady, 0.8), "gain"},
		{"slower within bound", steady, scale(steady, 1.05), "no regression"},
		{"slower beyond bound", steady, scale(steady, 1.2), "regression"},
		{"spread wider than bound", noisy, noisy, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.c, lower).verdict; got != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.verdict)
		}
	}
}
