package overlay

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/pcap"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// pcapGoldenScenarios are the wire runs whose captures are pinned byte for
// byte: every frame's inner and outer headers, payload, and arrival time,
// on one host and across a 2-host fabric.
func pcapGoldenScenarios() map[string]Scenario {
	base := func(sys steering.System, proto skb.Proto) Scenario {
		return Scenario{
			System: sys, Proto: proto, MsgSize: 65536,
			WireMode: true,
			Warmup:   5e5, Measure: 1e6, // 0.5ms + 1ms simulated
			Seed: 42,
		}
	}
	scs := map[string]Scenario{
		"wire-mflow-tcp": base(steering.MFlow, skb.TCP),
	}
	udp := base(steering.Vanilla, skb.UDP)
	udp.UDPClients = 3
	scs["wire-vanilla-udp-3clients"] = udp
	lossy := base(steering.FalconFunc, skb.TCP)
	lossy.Faults = &fault.Plan{Wire: fault.Profile{Drop: 0.01, Corrupt: 0.005}}
	scs["wire-falcon-func-tcp-lossy"] = lossy
	for _, sys := range []steering.System{steering.MFlow, steering.Native} {
		fab := base(sys, skb.TCP)
		fab.Flows = 2
		fab.Fabric = &fabric.Config{Hosts: 2}
		scs["fabric-"+sys.String()+"-tcp"] = fab
	}
	return scs
}

// TestPcapGoldens pins each golden wire run's capture against
// testdata/pcap_goldens.txt: one "name frames sha256" line per run, the
// frame count from the pcap reader and the digest over the whole stream.
// Regenerate with go test ./internal/overlay/ -run TestPcapGoldens -update
// after an intentional change to the wire bytes.
func TestPcapGoldens(t *testing.T) {
	scs := pcapGoldenScenarios()
	names := make([]string, 0, len(scs))
	for name := range scs {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, name := range names {
		sc := scs[name]
		var buf bytes.Buffer
		sc.Capture = &buf
		Run(sc)
		sum := sha256.Sum256(buf.Bytes())
		pkts, err := pcap.Read(&buf)
		if err != nil {
			t.Fatalf("%s: capture does not parse: %v", name, err)
		}
		if len(pkts) == 0 {
			t.Fatalf("%s: empty capture", name)
		}
		lines[i] = fmt.Sprintf("%s %d %x", name, len(pkts), sum)
	}
	checkGolden(t, filepath.Join("testdata", "pcap_goldens.txt"), []byte(strings.Join(lines, "\n")+"\n"))
}
