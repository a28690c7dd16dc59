package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mflow/internal/pcap"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                      string
		size, flows               int
		loss, dup, corrupt, stall float64
		wantErr                   string
	}{
		{"defaults", 65536, 1, 0, 0, 0, 0, ""},
		{"all max probs", 1500, 4, 1, 1, 1, 1, ""},
		{"zero size", 0, 1, 0, 0, 0, 0, "-size"},
		{"negative size", -1, 1, 0, 0, 0, 0, "-size"},
		{"zero flows", 65536, 0, 0, 0, 0, 0, "-flows"},
		{"loss over one", 65536, 1, 1.5, 0, 0, 0, "-loss"},
		{"negative dup", 65536, 1, 0, -0.1, 0, 0, "-dup"},
		{"corrupt NaN", 65536, 1, 0, 0, math.NaN(), 0, "-corrupt"},
		{"stall infinite", 65536, 1, 0, 0, 0, math.Inf(1), "-stall"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.size, c.flows, c.loss, c.dup, c.corrupt, c.stall)
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

func TestParseBurst(t *testing.T) {
	ge, err := parseBurst("0.002,0.1,0.75")
	if err != nil {
		t.Fatalf("valid burst rejected: %v", err)
	}
	if ge.PGoodBad != 0.002 || ge.PBadGood != 0.1 || ge.LossBad != 0.75 {
		t.Fatalf("burst parsed wrong: %+v", ge)
	}
	if ge, err := parseBurst(" 0.1, 0.2, 0.3 "); err != nil || ge.LossBad != 0.3 {
		t.Fatalf("whitespace-tolerant parse failed: %+v, %v", ge, err)
	}

	for _, bad := range []string{
		"",                // empty
		"0.1,0.2",         // too few fields
		"0.1,0.2,0.3,0.4", // too many fields
		"0.1,x,0.3",       // not a number
		"0.1,0.2,1.5",     // out of range
		"0.1,-0.2,0.3",    // negative
		"NaN,0.2,0.3",     // not finite
	} {
		if _, err := parseBurst(bad); err == nil {
			t.Errorf("parseBurst(%q) accepted invalid input", bad)
		}
	}
}

func TestOverloadNames(t *testing.T) {
	names := overloadNames()
	for _, want := range []string{"pressure", "livelock"} {
		if !strings.Contains(names, want) {
			t.Errorf("overload profile list %q missing %q", names, want)
		}
	}
}

func TestFabricConfig(t *testing.T) {
	// Default single host: no fabric, and the fabric-only flags are
	// rejected rather than silently ignored.
	if cfg, err := fabricConfig(1, "", ""); err != nil || cfg != nil {
		t.Fatalf("fabricConfig(1) = %+v, %v; want nil, nil", cfg, err)
	}
	if _, err := fabricConfig(1, "incast", ""); err == nil || !strings.Contains(err.Error(), "-placement") {
		t.Errorf("placement without hosts accepted: %v", err)
	}
	if _, err := fabricConfig(1, "", "40,5,512"); err == nil || !strings.Contains(err.Error(), "-underlay") {
		t.Errorf("underlay without hosts accepted: %v", err)
	}

	cfg, err := fabricConfig(3, "incast", " 10, 2.5, 64 ")
	if err != nil {
		t.Fatalf("valid fabric flags rejected: %v", err)
	}
	if cfg.Hosts != 3 || cfg.Placement != "incast" {
		t.Errorf("hosts/placement parsed wrong: %+v", cfg)
	}
	if cfg.LinkGbps != 10 || cfg.LinkLatency != 2500 || cfg.LinkQueueBytes != 64<<10 {
		t.Errorf("underlay parsed wrong: %+v", cfg)
	}

	// Bare -hosts keeps the underlay at package defaults (zero here,
	// filled by WithDefaults at run time) and pair placement.
	cfg, err = fabricConfig(2, "", "")
	if err != nil || cfg.Hosts != 2 || cfg.Placement != "" || cfg.LinkGbps != 0 {
		t.Errorf("bare -hosts 2 parsed wrong: %+v, %v", cfg, err)
	}

	for _, bad := range []struct {
		hosts               int
		placement, underlay string
	}{
		{0, "", ""},           // no hosts
		{-2, "", ""},          // negative
		{65, "", ""},          // over the cap
		{2, "ring", ""},       // unknown placement
		{2, "", "40,5"},       // too few fields
		{2, "", "40,5,512,9"}, // too many fields
		{2, "", "x,5,512"},    // not a number
		{2, "", "0,5,512"},    // zero rate
		{2, "", "40,-5,512"},  // negative latency
		{2, "", "40,5,Inf"},   // not finite
	} {
		if _, err := fabricConfig(bad.hosts, bad.placement, bad.underlay); err == nil {
			t.Errorf("fabricConfig(%d, %q, %q) accepted invalid input",
				bad.hosts, bad.placement, bad.underlay)
		}
	}
}

// TestRunFabricPcap: a 2-host fabric run with -pcap writes a non-empty
// capture that parses as one pcap stream.
func TestRunFabricPcap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.pcap")
	var out, errb bytes.Buffer
	args := []string{"-hosts", "2", "-flows", "2", "-warmup-ms", "1", "-measure-ms", "1", "-pcap", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "pcap       written to") {
		t.Errorf("output lacks the pcap line:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pkts, err := pcap.Read(f)
	if err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	if len(pkts) == 0 {
		t.Error("capture is empty")
	}
}
