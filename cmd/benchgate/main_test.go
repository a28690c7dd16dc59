package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineRows = `goos: linux
BenchmarkLaneAt   	 1000000	       300.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCoreRun  	38497078	        31.72 ns/op	       0 B/op	       0 allocs/op
`

// writeBench writes a `go test -bench` transcript into dir and returns its
// path.
func writeBench(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunGates drives the command end to end over a passing run, a time
// regression and an allocation regression.
func TestRunGates(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.txt", baselineRows)
	cases := []struct {
		name, current string
		code          int
		stderr        string
	}{
		{"within tolerance", strings.Replace(baselineRows, "300.0 ns/op", "330.0 ns/op", 1), 0, ""},
		{"slower", strings.Replace(baselineRows, "300.0 ns/op", "400.0 ns/op", 1), 1, "BenchmarkLaneAt"},
		{"allocates", strings.Replace(baselineRows, "0 B/op	       0 allocs", "8 B/op	       1 allocs", 1), 1, "BenchmarkLaneAt"},
		{"missing", "BenchmarkCoreRun  	1	        31.72 ns/op	       0 B/op	       0 allocs/op\n", 1, "BenchmarkLaneAt"},
	}
	for _, c := range cases {
		cur := writeBench(t, dir, "cur.txt", c.current)
		var out, errb bytes.Buffer
		code := run([]string{"-baseline", base, "-current", cur, "-tolerance", "0.20"}, &out, &errb)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, code, c.code, errb.String())
		}
		if !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("%s: stderr %q does not mention %s", c.name, errb.String(), c.stderr)
		}
		if c.code == 0 && !strings.Contains(out.String(), "2 benchmark(s) within tolerance") {
			t.Errorf("%s: stdout lacks the verdict:\n%s", c.name, out.String())
		}
	}
}

// TestRunRejectsBadInput checks flag and input validation exits 2.
func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.txt", baselineRows)
	empty := writeBench(t, dir, "empty.txt", "PASS\n")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-baseline", base, "-current", base, "-tolerance", "-0.1"}, "-tolerance"},
		{[]string{"-baseline", base, "-current", base, "-tolerance", "NaN"}, "-tolerance"},
		{[]string{"-baseline", filepath.Join(dir, "absent.txt"), "-current", base}, "absent.txt"},
		{[]string{"-baseline", empty, "-current", base}, "no benchmarks"},
		{[]string{"-nope"}, "-nope"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%v: stderr %q does not mention %s", c.args, errb.String(), c.want)
		}
	}
}
