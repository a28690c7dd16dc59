package main

import (
	"math"
	"testing"

	"mflow/internal/bench"
)

// TestClaimTableOnCommittedArtifact checks that every claim's selector
// names exactly one record of the committed seed-42 artifact and that the
// table reproduces the committed paper error, 26.3 %.
func TestClaimTableOnCommittedArtifact(t *testing.T) {
	a, err := bench.LoadArtifact("../" + committedArtifact)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for _, r := range a.Runs {
		keys[r.Key]++
	}
	for k, n := range keys {
		if n != 1 {
			t.Errorf("%d records share key %s", n, k)
		}
	}
	caching := map[cachingSel]int{}
	for _, r := range a.Apps {
		if r.Kind == "caching" {
			caching[cachingSel{r.System, r.Clients}]++
		}
	}
	for sel, n := range caching {
		if n != 1 {
			t.Errorf("%d caching records for %+v", n, sel)
		}
	}

	s := windows(paperWarmup, paperMeasure, false)(a.Seed, false)
	v := artifactView(a, s.single)
	for _, c := range claims {
		m, ok := c.measure(v)
		if !ok {
			t.Errorf("%s %s: selector resolves no record", c.fig, c.what)
			continue
		}
		t.Logf("%-8s %-30s paper %6.3f measured %6.3f", c.fig, c.what, c.paper, m)
	}
	pct, n := paperErrPct(v)
	if n != len(claims) || math.Round(pct*10)/10 != 26.3 {
		t.Errorf("paper error %.2f%% over %d claims, want 26.3%% over %d", pct, n, len(claims))
	}
}
