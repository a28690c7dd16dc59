package overlay

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mflow/internal/fabric"
	"mflow/internal/fault"
	"mflow/internal/obs"
	"mflow/internal/overload"
	"mflow/internal/sim"
	"mflow/internal/skb"
	"mflow/internal/steering"
	"mflow/internal/trace"
)

// filled returns sc with every optional config allocated: a nil pointer
// becomes its zero value (Costs its defaults), the reading Key gives it.
// Two filled scenarios compare with reflect.DeepEqual exactly as their
// configurations compare.
func filled(sc Scenario) Scenario {
	if sc.Costs == nil {
		sc.Costs = DefaultCosts()
	}
	faults := fault.Plan{}
	if sc.Faults != nil {
		faults = *sc.Faults
	}
	if faults.Wire.Burst == nil {
		faults.Wire.Burst = &fault.GilbertElliott{}
	}
	sc.Faults = &faults
	if sc.Overload == nil {
		sc.Overload = &overload.Config{}
	}
	if sc.Fabric == nil {
		sc.Fabric = &fabric.Config{}
	}
	return sc
}

// keyLeaves calls fn with the path and settable value of every keyed leaf
// reachable from v (a filled scenario), following pointers.
func keyLeaves(path string, v reflect.Value, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		keyLeaves(path, v.Elem(), fn)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Tag.Get("key") == "-" {
				continue
			}
			name := f.Name
			if path != "" {
				name = path + "." + name
			}
			keyLeaves(name, v.Field(i), fn)
		}
	default:
		fn(path, v)
	}
}

// leafPaths lists every keyed leaf of a scenario, in walk order.
func leafPaths() []string {
	var paths []string
	sc := filled(Scenario{})
	keyLeaves("", reflect.ValueOf(&sc).Elem(), func(p string, _ reflect.Value) { paths = append(paths, p) })
	return paths
}

// withLeaf returns a filled copy of sc (fresh pointers, so sc is not
// aliased) with leaf i replaced by set(old value).
func withLeaf(sc Scenario, i int, set func(reflect.Value)) Scenario {
	sc = filled(sc)
	costs, faults, burst := *sc.Costs, *sc.Faults, *sc.Faults.Wire.Burst
	ov, fab := *sc.Overload, *sc.Fabric
	faults.Wire.Burst = &burst
	sc.Costs, sc.Faults, sc.Overload, sc.Fabric = &costs, &faults, &ov, &fab
	n := 0
	keyLeaves("", reflect.ValueOf(&sc).Elem(), func(_ string, v reflect.Value) {
		if n == i {
			set(v)
		}
		n++
	})
	return sc
}

// step changes a leaf by its smallest step: 1 (ns or unit), the next
// float up, a flipped bool or one more character.
func step(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("step: unhandled kind " + v.Kind().String())
	}
}

// keyBases are the scenarios the leaf steps start from: bare and defaulted
// scenarios for both protocols, MFLOW (whose config the defaults rewrite
// per protocol) and a non-MFLOW system.
func keyBases() []Scenario {
	var out []Scenario
	for _, sys := range []steering.System{steering.MFlow, steering.Vanilla} {
		for _, proto := range []skb.Proto{skb.TCP, skb.UDP} {
			sc := Scenario{System: sys, Proto: proto}
			out = append(out, sc, sc.withDefaults())
		}
	}
	return out
}

// TestKeyLeafSteps changes every leaf reachable from Scenario by its
// smallest step, from each base: the key changes exactly when the defaulted
// configurations differ, and then names the stepped leaf.
func TestKeyLeafSteps(t *testing.T) {
	paths := leafPaths()
	for _, want := range []string{
		"MsgSize", "MFlow.ElephantBps", "Costs.NIC.IRQCoalesce", "Costs.VXLAN.PerByte",
		"Costs.TCPClient.PerMsg", "Costs.InterferenceMean", "Faults.Seed",
		"Faults.Wire.Burst.LossBad", "Faults.OFOCap", "Overload.SoftirqThreshold",
		"Overload.Tick", "Fabric.Placement", "Fabric.FDBMaxAge", "Seed", "Measure",
	} {
		if !slices.Contains(paths, want) {
			t.Errorf("leaf walk misses %s", want)
		}
	}
	for _, obsField := range []string{"Tracer", "Obs", "CoreLog", "Capture"} {
		if slices.Contains(paths, obsField) {
			t.Errorf("leaf walk reaches observer field %s", obsField)
		}
	}
	for _, base := range keyBases() {
		baseKey := base.Key()
		baseDef := filled(base.withDefaults())
		for i, path := range paths {
			sc := withLeaf(base, i, step)
			key := sc.Key()
			def := filled(sc.withDefaults())
			same := reflect.DeepEqual(def, baseDef)
			if same != (key == baseKey) {
				t.Errorf("%s, %s stepped: configs equal=%v but keys equal=%v\n  base: %s\n  got:  %s",
					base.Name(), path, same, key == baseKey, baseKey, key)
			}
			if !same && !leafEqual(def, baseDef, i) && !strings.Contains(key, " "+path+":") {
				t.Errorf("%s: key does not name stepped leaf %s: %s", base.Name(), path, key)
			}
		}
	}
}

// leafEqual reports whether leaf i holds the same value in two filled
// scenarios.
func leafEqual(a, b Scenario, i int) bool {
	var va, vb reflect.Value
	withLeaf(a, i, func(v reflect.Value) { va = v })
	withLeaf(b, i, func(v reflect.Value) { vb = v })
	return reflect.DeepEqual(va.Interface(), vb.Interface())
}

// TestKeyCanonical pins the encoding's invariants: a scenario and its
// defaulted form share a key, a nil config and its zero value share a key,
// observers never reach it, and it holds no rounded or nil rendering.
func TestKeyCanonical(t *testing.T) {
	bases := keyBases()
	for _, sc := range goldenScenarios() {
		bases = append(bases, sc)
	}
	for _, base := range bases {
		if a, b := base.Key(), base.withDefaults().Key(); a != b {
			t.Errorf("defaulting changed the key:\n  raw:       %s\n  defaulted: %s", a, b)
		}
		if a, b := base.Key(), filled(base).Key(); a != b {
			t.Errorf("nil configs and their zero values key apart:\n  nil:  %s\n  zero: %s", a, b)
		}
		watched := base
		watched.Tracer, watched.Obs, watched.CoreLog, watched.Capture = trace.New(), obs.New(), &obs.CoreLog{}, &bytes.Buffer{}
		key := watched.Key()
		if key != base.Key() {
			t.Errorf("observers changed the key:\n  plain:   %s\n  watched: %s", base.Key(), key)
		}
		for _, bad := range []string{"<nil>", "Tracer", "Obs", "CoreLog", "Capture", "ms", "µs"} {
			if strings.Contains(key, bad) {
				t.Errorf("key contains %q: %s", bad, key)
			}
		}
	}
	// Inert settings key as their defaults: an unset elephant threshold is
	// the detector's own, and a fabric of fewer than two hosts is the
	// single host.
	auto := Scenario{System: steering.MFlow, Proto: skb.TCP, MFlow: MFlowConfig{AutoDetect: true}}
	autoGbps := auto
	autoGbps.MFlow.ElephantBps = 1e9
	single := Scenario{System: steering.MFlow, Proto: skb.TCP}
	oneHost := single
	oneHost.Fabric = &fabric.Config{Hosts: 1, Placement: fabric.PlaceIncast, LinkGbps: 10}
	for _, pair := range [][2]Scenario{{auto, autoGbps}, {single, oneHost}} {
		if a, b := pair[0].Key(), pair[1].Key(); a != b {
			t.Errorf("inert setting keys apart:\n  %s\n  %s", a, b)
		}
	}
}

// TestKeyExactDurations pins the case a rounded duration rendering
// conflated: the two windows run differently, so they must key apart.
func TestKeyExactDurations(t *testing.T) {
	a := Scenario{System: steering.MFlow, Proto: skb.TCP, Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond}
	b := a
	b.Measure += 400
	if got, want := a.Key(), "v2 System:mflow Proto:TCP Warmup:1000000 Measure:2000000"; got != want {
		t.Errorf("key = %s, want %s", got, want)
	}
	if got, want := b.Key(), "v2 System:mflow Proto:TCP Warmup:1000000 Measure:2000400"; got != want {
		t.Errorf("key = %s, want %s", got, want)
	}
}

// TestKeyRejectsUnknownLeaf: a leaf kind the encoding has no exact
// rendering for (a slice, a func) must stop Key rather than be skipped.
func TestKeyRejectsUnknownLeaf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("keyDiff accepted a slice leaf")
		}
	}()
	v := reflect.ValueOf(struct{ S []int }{})
	keyDiff(&strings.Builder{}, "", "", v, v)
}

// FuzzScenarioKey sets one leaf of each of two scenarios to fuzzed values:
// their keys must be equal exactly when their defaulted configurations are.
func FuzzScenarioKey(f *testing.F) {
	f.Add(uint16(0), uint16(0), int64(0), int64(0), 0.0, 0.0, "", "", false, false)
	f.Add(uint16(3), uint16(3), int64(256), int64(0), 0.5, 0.5, "a", "a", true, false)
	f.Add(uint16(9), uint16(10), int64(1), int64(1), 1e9, 1e9, "pair", "", false, true)
	paths := leafPaths()
	f.Fuzz(func(t *testing.T, i, j uint16, n, m int64, x, y float64, s, u string, udp, nilPtrs bool) {
		if math.IsNaN(x) || math.IsNaN(y) {
			t.Skip("NaN is not a configuration")
		}
		// Negative zero is zero as a configuration, but prints apart.
		if x == 0 {
			x = 0
		}
		if y == 0 {
			y = 0
		}
		set := func(n int64, x float64, s string) func(reflect.Value) {
			return func(v reflect.Value) {
				switch v.Kind() {
				case reflect.Bool:
					v.SetBool(n&1 == 1)
				case reflect.Int, reflect.Int64:
					v.SetInt(n)
				case reflect.Uint64:
					v.SetUint(uint64(n))
				case reflect.Float64:
					v.SetFloat(x)
				case reflect.String:
					v.SetString(s)
				}
			}
		}
		proto := skb.TCP
		if udp {
			proto = skb.UDP
		}
		base := Scenario{System: steering.MFlow, Proto: proto}
		a := withLeaf(base, int(i)%len(paths), set(n, x, s))
		b := withLeaf(base, int(j)%len(paths), set(m, y, u))
		same := reflect.DeepEqual(filled(a.withDefaults()), filled(b.withDefaults()))
		if nilPtrs {
			// A zero config reads like nil: clearing one must not re-key.
			if *a.Overload == (overload.Config{}) {
				a.Overload = nil
			}
			if *a.Fabric == (fabric.Config{}) {
				a.Fabric = nil
			}
			if *a.Faults.Wire.Burst == (fault.GilbertElliott{}) {
				a.Faults.Wire.Burst = nil
			}
		}
		ka, kb := a.Key(), b.Key()
		if same != (ka == kb) {
			t.Fatalf("configs equal=%v but keys equal=%v\n  a: %s\n  b: %s", same, ka == kb, ka, kb)
		}
		if ka != a.withDefaults().Key() {
			t.Fatalf("defaulting changed the key: %s", ka)
		}
	})
}
