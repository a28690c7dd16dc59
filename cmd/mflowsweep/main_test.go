package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSweepCSV drives a tiny grid end to end: a header plus one CSV row
// per (batch, cores) cell, in submission order.
func TestRunSweepCSV(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-proto", "udp", "-batches", "16,64", "-cores", "2", "-measure-ms", "1", "-parallel", "2"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "proto,msg_size,batch,split_cores,") {
		t.Fatalf("want a header and 2 rows, got:\n%s", out.String())
	}
	for i, batch := range []string{"16", "64"} {
		f := strings.Split(lines[i+1], ",")
		if len(f) != 12 || f[0] != "UDP" || f[2] != batch || f[3] != "2" {
			t.Errorf("row %d = %q, want UDP batch %s on 2 cores", i, lines[i+1], batch)
		}
	}
}

// TestRunRejectsBadFlags checks every validation path exits 2 before any
// simulation runs, naming the offending flag.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-proto", "sctp"}, "-proto"},
		{[]string{"-batches", "16,0"}, "-batches"},
		{[]string{"-batches", "x"}, "-batches"},
		{[]string{"-cores", "-1"}, "-cores"},
		{[]string{"-size", "0"}, "-size"},
		{[]string{"-kernel-cores", "0"}, "-kernel-cores"},
		{[]string{"-measure-ms", "0"}, "-measure-ms"},
		{[]string{"-parallel", "0"}, "-parallel"},
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
		if out.Len() != 0 {
			t.Errorf("%v: wrote output before failing: %q", c.args, out.String())
		}
	}
}
