package overlay

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/obs"
	"mflow/internal/overload"
	"mflow/internal/skb"
	"mflow/internal/steering"
)

// goldenScenarios are the differential-golden runs: one per counter group
// the window accounting has to carry (plain, each chaos fault profile,
// overload pressure and livelock, a 2-host fabric, wire mode). BENCH_all.json
// covers only the fault-, overload- and fabric-free paths, so these pin the
// rest of Result and the obs registry byte for byte.
func goldenScenarios() map[string]Scenario {
	base := func(sys steering.System, proto skb.Proto) Scenario {
		return Scenario{
			System: sys, Proto: proto, MsgSize: 65536,
			Warmup: 1e6, Measure: 2e6, // 1ms + 2ms simulated
			Seed: 42,
		}
	}
	scs := map[string]Scenario{
		"plain-tcp": base(steering.MFlow, skb.TCP),
		"plain-udp": base(steering.MFlow, skb.UDP),
	}
	for name, plan := range fault.ChaosProfiles() {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			sc := base(steering.MFlow, proto)
			sc.Faults = plan
			scs["chaos-"+name+"-"+proto.String()] = sc
		}
	}
	pressure := base(steering.MFlow, skb.UDP)
	pressure.Window, pressure.UDPClients = 4096, 6
	pressure.Overload = overload.Profiles()["pressure"]
	pressure.Warmup, pressure.Measure = 2e6, 6e6 // long enough for the control laws to act
	scs["overload-pressure"] = pressure
	livelock := base(steering.Vanilla, skb.UDP)
	livelock.MsgSize, livelock.UDPClients = 1500, 8
	livelock.Overload = overload.LivelockConfig(true)
	livelock.Warmup = 1e4 // polling engages inside the measured window
	scs["overload-livelock"] = livelock
	fab := base(steering.MFlow, skb.TCP)
	fab.Flows = 2
	fab.Fabric = &fabric.Config{Hosts: 2}
	scs["fabric-2host"] = fab
	wire := base(steering.MFlow, skb.TCP)
	wire.WireMode = true
	scs["wire-tcp"] = wire
	return scs
}

// TestFingerprintGoldens pins Result.Fingerprint for every golden scenario
// against testdata/fingerprints/<name>.txt: every window counter, the
// whole-run totals and the full obs snapshot. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/overlay/ -run TestFingerprintGoldens
// after an intentional model change.
func TestFingerprintGoldens(t *testing.T) {
	scs := goldenScenarios()
	names := make([]string, 0, len(scs))
	for name := range scs {
		names = append(names, name)
	}
	sort.Strings(names)
	dir := filepath.Join("testdata", "fingerprints")
	for _, name := range names {
		sc := scs[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc.Obs = obs.New()
			got := Run(sc).Fingerprint()
			golden := filepath.Join(dir, name+".txt")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
			}
			if got != string(want) {
				t.Errorf("fingerprint drifted from %s; regenerate with UPDATE_GOLDEN=1 if intended:\n--- want ---\n%s\n--- got ---\n%s",
					golden, want, got)
			}
		})
	}
}
