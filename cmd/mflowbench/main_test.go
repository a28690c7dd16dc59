package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mflow/internal/bench"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                string
		parallel            int
		measureMs, warmupMs int
		wantErr             string
	}{
		{"defaults", 4, 12, 3, ""},
		{"zero workers", 0, 12, 3, "-parallel"},
		{"negative workers", -2, 12, 3, "-parallel"},
		{"zero measure window", 4, 0, 3, "-measure-ms"},
		{"negative warmup", 4, 12, -1, "-warmup-ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.parallel, c.measureMs, c.warmupMs)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestRunWritesArtifact drives one figure in-process with tiny windows:
// the artifact it writes loads, and a second identical run reproduces it
// exactly.
func TestRunWritesArtifact(t *testing.T) {
	var arts [2]*bench.Artifact
	for i := range arts {
		dir := t.TempDir()
		var out, errb bytes.Buffer
		if code := run([]string{"-fig", "7", "-warmup-ms", "1", "-measure-ms", "2", "-json", dir}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		if !strings.Contains(out.String(), "== fig7") {
			t.Errorf("output lacks the fig7 table:\n%s", out.String())
		}
		a, err := bench.LoadArtifact(filepath.Join(dir, "BENCH_7.json"))
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = a
	}
	if len(arts[0].Runs) == 0 {
		t.Error("artifact holds no runs")
	}
	if d := bench.Diff(arts[0], arts[1]); len(d) != 0 {
		t.Errorf("identical runs differ:\n%s", strings.Join(d, "\n"))
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-parallel", "0"}, &out, &errb); code != 2 {
		t.Errorf("-parallel 0: exit %d, want 2", code)
	}
}
