package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// boundSpec is an end-to-end metric's direction and regression bound as
// BENCHMARK.json records them.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]boundSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// resultLine is the last line a benchmark run prints.
type resultLine struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runBinary runs one benchmark binary on one workload and parses its
// result line.
func runBinary(bin, workload string, seed uint64, seconds float64) (*resultLine, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s -workload %s: %w", bin, workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s -workload %s: result line: %w", bin, workload, err)
	}
	return &r, nil
}

// runPairs compares the parent's benchmark binary (a) with the change's
// (b). Pair i runs both at seed+i, alternating which side goes first, then
// every (workload, metric) gets both sides' medians and quartiles, the
// change's win fraction and a verdict by the rule of choosing-metrics §8
// with the bounds in BENCHMARK.json.
func runPairs(n int, binA, binB, only string, seed uint64, seconds float64) int {
	if n < 10 || binA == "" || binB == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -pairs needs at least 10 pairs and both -a and -b")
		return 2
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := []string{only}
	if only == "" || only == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	// vals[workload][side][metric] lists one value per pair.
	vals := map[string]*[2]map[string][]float64{}
	failed := map[string]*[2]int{}
	for _, w := range names {
		vals[w] = &[2]map[string][]float64{{}, {}}
		failed[w] = &[2]int{}
	}
	for i := 0; i < n; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, w := range names {
			for _, side := range order {
				bin := []string{binA, binB}[side]
				r, err := runBinary(bin, w, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				failed[w][side] += r.Failed
				for name, m := range r.Metrics {
					vals[w][side][name] = append(vals[w][side][name], m.Value)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: pair %d/%d done\n", i+1, n)
	}

	fmt.Printf("%-15s %-16s %24s %24s %6s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, w := range names {
		for _, b := range bounds {
			a, c := vals[w][0][b.Name], vals[w][1][b.Name]
			if len(a) != n || len(c) != n {
				fmt.Printf("%-15s %-16s missing values\n", w, b.Name)
				continue
			}
			v := judge(a, c, b)
			fmt.Printf("%-15s %-16s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %5.0f%%  %s\n",
				w, b.Name, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, 100*v.wins, v.verdict)
		}
		fmt.Printf("%-15s %-16s %24d %24d\n", w, "failed runs", failed[w][0], failed[w][1])
	}
	return 0
}

type verdict struct {
	medA, q1A, q3A, medB, q1B, q3B float64
	wins                           float64
	verdict                        string
}

// judge compares one metric's paired values, a (parent) and c (change).
// A gain needs the change to win at least nine tenths of the pairs and the
// medians to differ by more than the parent's own quartile spread. Where
// that spread is wider than the bound, the metric is unresolved unless
// every change run reads better than every parent run. Otherwise the
// change regresses when its median is worse than the parent's by more
// than the bound.
func judge(a, c []float64, b boundSpec) verdict {
	sign := 1.0 // > 0 means "better" is larger
	if b.Better == "lower" {
		sign = -1
	}
	var v verdict
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(c)
	for i := range a {
		if d := sign * (c[i] - a[i]); d > 0 {
			v.wins++
		}
	}
	v.wins /= float64(len(a))
	gainBy := sign * (v.medB - v.medA)
	scale := math.Abs(v.medA)
	allBetter := true
	for _, x := range a {
		for _, y := range c {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.wins >= 0.9 && gainBy > v.q3A-v.q1A:
		v.verdict = "gain"
	case v.q3A-v.q1A > b.Bound*scale && !allBetter:
		v.verdict = "unresolved"
	case -gainBy > b.Bound*scale:
		v.verdict = "regression"
	default:
		v.verdict = "no regression"
	}
	return v
}
