package gups

import (
	"strings"
	"testing"

	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

// quickCfg keeps unit-test runs fast; calibration-grade windows live
// in the experiments package.
func quickCfg() Config {
	return Config{Warmup: 40 * sim.Microsecond, Measure: 120 * sim.Microsecond}
}

func TestRunReadOnlyBandwidthBand(t *testing.T) {
	cfg := quickCfg()
	cfg.Type = ReadOnly
	res := MustRun(cfg)
	// Paper Figure 7: distributed 128 B ro lands near 21-22 GB/s raw.
	if res.RawGBps < 18 || res.RawGBps > 25 {
		t.Fatalf("ro raw = %.2f GB/s, outside [18,25]", res.RawGBps)
	}
	if res.Reads == 0 || res.Writes != 0 {
		t.Fatalf("ro mix wrong: %d reads %d writes", res.Reads, res.Writes)
	}
	if res.ReadHistNs.Min() < 600 {
		t.Fatalf("min latency %.0f ns below the low-load floor", res.ReadHistNs.Min())
	}
}

// TestRequestTypeOrdering pins the Figure 7 shape: rw > ro > wo for
// distributed accesses, with rw roughly double wo.
func TestRequestTypeOrdering(t *testing.T) {
	res := map[ReqType]Result{}
	for _, ty := range []ReqType{ReadOnly, WriteOnly, ReadModifyWrite} {
		cfg := quickCfg()
		cfg.Type = ty
		res[ty] = MustRun(cfg)
	}
	ro, wo, rw := res[ReadOnly].RawGBps, res[WriteOnly].RawGBps, res[ReadModifyWrite].RawGBps
	if !(rw > ro && ro > wo) {
		t.Fatalf("ordering rw(%.1f) > ro(%.1f) > wo(%.1f) violated", rw, ro, wo)
	}
	if ratio := rw / wo; ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("rw/wo = %.2f, want ~2 (Section IV-B)", ratio)
	}
	// rw interleaves reads and writes roughly 1:1.
	r := res[ReadModifyWrite]
	if r.Writes == 0 || float64(r.Reads)/float64(r.Writes) > 1.3 ||
		float64(r.Reads)/float64(r.Writes) < 0.7 {
		t.Fatalf("rw read/write balance = %d/%d", r.Reads, r.Writes)
	}
}

// TestVaultBandwidthCeiling: a single vault cannot exceed its 10 GB/s
// internal bandwidth no matter the request type (Section IV-A).
func TestVaultBandwidthCeiling(t *testing.T) {
	for _, ty := range []ReqType{ReadOnly, WriteOnly} {
		cfg := quickCfg()
		cfg.Type = ty
		cfg.ZeroMask = hmc.BitRangeMask(7, 10) // vault 0 only
		res := MustRun(cfg)
		if res.DataGBps > 10.05 {
			t.Fatalf("%v single vault data = %.2f GB/s exceeds 10", ty, res.DataGBps)
		}
		if res.DataGBps < 7 {
			t.Fatalf("%v single vault data = %.2f GB/s, too far below the ceiling", ty, res.DataGBps)
		}
	}
}

// TestEightBanksSaturateVault: accessing more than eight banks of a
// vault does not raise bandwidth (Section IV-B).
func TestEightBanksSaturateVault(t *testing.T) {
	run := func(zeroMask uint64) float64 {
		cfg := quickCfg()
		cfg.ZeroMask = zeroMask
		return MustRun(cfg).RawGBps
	}
	vaultMask := hmc.BitRangeMask(7, 10)
	eight := run(vaultMask | hmc.BitRangeMask(14, 14)) // banks 0-7
	sixteen := run(vaultMask)                          // all 16 banks
	if diff := (sixteen - eight) / sixteen; diff > 0.08 {
		t.Fatalf("16 banks (%.2f) >8%% above 8 banks (%.2f)", sixteen, eight)
	}
}

// TestBankScaling: bandwidth roughly doubles from 1 to 2 to 4 banks
// (Figure 7 leftmost groups).
func TestBankScaling(t *testing.T) {
	bw := map[int]float64{}
	vault := hmc.BitRangeMask(7, 10)
	masks := map[int]uint64{
		1: vault | hmc.BitRangeMask(11, 14),
		2: vault | hmc.BitRangeMask(12, 14),
		4: vault | hmc.BitRangeMask(13, 14),
	}
	for n, m := range masks {
		cfg := quickCfg()
		cfg.ZeroMask = m
		bw[n] = MustRun(cfg).RawGBps
	}
	if r := bw[2] / bw[1]; r < 1.7 || r > 2.3 {
		t.Fatalf("2-bank/1-bank = %.2f, want ~2", r)
	}
	if r := bw[4] / bw[2]; r < 1.7 || r > 2.3 {
		t.Fatalf("4-bank/2-bank = %.2f, want ~2", r)
	}
}

// TestSizeMRPSScaling pins Figure 8: at 16 vaults, 32 B requests are
// handled about twice as often as 128 B requests, while raw bandwidth
// stays within ~25%.
func TestSizeMRPSScaling(t *testing.T) {
	run := func(size int) Result {
		cfg := quickCfg()
		cfg.Size = size
		return MustRun(cfg)
	}
	r128, r32 := run(128), run(32)
	if ratio := r32.MRPS / r128.MRPS; ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("MRPS(32B)/MRPS(128B) = %.2f, want ~2", ratio)
	}
	if r32.RawGBps > r128.RawGBps {
		t.Fatalf("32 B raw (%.1f) above 128 B raw (%.1f)", r32.RawGBps, r128.RawGBps)
	}
	if r32.RawGBps < r128.RawGBps*0.7 {
		t.Fatalf("32 B raw (%.1f) not 'relatively same' as 128 B (%.1f)", r32.RawGBps, r128.RawGBps)
	}
}

// TestLinearVsRandom pins Figure 13: with the closed-page policy,
// linear and random bandwidth are similar.
func TestLinearVsRandom(t *testing.T) {
	run := func(mode Mode) float64 {
		cfg := quickCfg()
		cfg.Mode = mode
		cfg.Seed = 5
		return MustRun(cfg).RawGBps
	}
	lin, rnd := run(Linear), run(Random)
	if diff := abs(lin-rnd) / rnd; diff > 0.1 {
		t.Fatalf("linear %.2f vs random %.2f differ by %.0f%%, want similar", lin, rnd, diff*100)
	}
}

// TestHighLoadLatencyOrdering pins Figure 16: 32 B read latency is
// always lower than 64 B and 128 B at high load.
func TestHighLoadLatencyOrdering(t *testing.T) {
	lat := map[int]float64{}
	for _, size := range []int{32, 64, 128} {
		cfg := quickCfg()
		cfg.Size = size
		lat[size] = MustRun(cfg).ReadHistNs.Mean()
	}
	if !(lat[32] < lat[64] && lat[64] < lat[128]) {
		t.Fatalf("latency ordering violated: 32B=%.0f 64B=%.0f 128B=%.0f", lat[32], lat[64], lat[128])
	}
}

// TestSmallScalePortSweep: request bandwidth rises with active ports
// and latency saturates (Figure 17 behaviour).
func TestSmallScalePortSweep(t *testing.T) {
	var prevBW float64
	for _, ports := range []int{1, 3, 9} {
		cfg := quickCfg()
		cfg.Ports = ports
		cfg.ZeroMask = hmc.BitRangeMask(7, 10) | hmc.BitRangeMask(13, 14) // 4 banks
		res := MustRun(cfg)
		if res.RawGBps < prevBW*0.95 {
			t.Fatalf("bandwidth fell from %.2f to %.2f at %d ports", prevBW, res.RawGBps, ports)
		}
		prevBW = res.RawGBps
	}
}

func TestRunConfigValidation(t *testing.T) {
	cfg := quickCfg()
	cfg.Size = 20
	if _, err := Run(cfg); err == nil {
		t.Error("invalid size accepted")
	}
	cfg = quickCfg()
	cfg.Ports = 10
	if _, err := Run(cfg); err == nil {
		t.Error("too many ports accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickCfg()
	cfg.Seed = 77
	a, b := MustRun(cfg), MustRun(cfg)
	if a.Reads != b.Reads || a.RawGBps != b.RawGBps ||
		a.ReadHistNs.Mean() != b.ReadHistNs.Mean() {
		t.Fatal("same-seed runs diverged")
	}
}

func TestResultString(t *testing.T) {
	cfg := quickCfg()
	res := MustRun(cfg)
	if s := res.String(); len(s) < 20 {
		t.Fatalf("String too short: %q", s)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestMixedReadFraction: a Mixed port honours its configured read
// share and outruns both pure directions at a balanced ratio.
func TestMixedReadFraction(t *testing.T) {
	cfg := quickCfg()
	cfg.Type = Mixed
	cfg.ReadFraction = 0.6
	res := MustRun(cfg)
	total := float64(res.Reads + res.Writes)
	if total == 0 {
		t.Fatal("no requests completed")
	}
	share := float64(res.Reads) / total
	if share < 0.52 || share > 0.68 {
		t.Fatalf("read share = %.2f, want ~0.6", share)
	}
	// A balanced mix uses both link directions: it beats wo.
	cfgWo := quickCfg()
	cfgWo.Type = WriteOnly
	if wo := MustRun(cfgWo); res.RawGBps <= wo.RawGBps {
		t.Fatalf("mixed (%.2f) not above wo (%.2f)", res.RawGBps, wo.RawGBps)
	}
}

func TestMixedValidation(t *testing.T) {
	cfg := quickCfg()
	cfg.Type = Mixed
	cfg.ReadFraction = 1.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("read fraction > 1 accepted")
	}
}

// TestMixedExtremesMatchPure: Mixed at 0%/100% behaves like wo/ro.
func TestMixedExtremesMatchPure(t *testing.T) {
	run := func(ty ReqType, frac float64) Result {
		cfg := quickCfg()
		cfg.Type = ty
		cfg.ReadFraction = frac
		return MustRun(cfg)
	}
	allReads := run(Mixed, 1.0)
	if allReads.Writes != 0 {
		t.Fatalf("mixed@100%% issued %d writes", allReads.Writes)
	}
	ro := run(ReadOnly, 0)
	if rel := (allReads.RawGBps - ro.RawGBps) / ro.RawGBps; rel > 0.05 || rel < -0.05 {
		t.Fatalf("mixed@100%% (%.2f) differs from ro (%.2f)", allReads.RawGBps, ro.RawGBps)
	}
	allWrites := run(Mixed, 0.0)
	if allWrites.Reads != 0 {
		t.Fatalf("mixed@0%% issued %d reads", allWrites.Reads)
	}
}

// TestBuildRigPortsValidation: the heterogeneous-ports entry point
// returns errors for bad per-port parameters instead of panicking in
// the generator constructor (regression).
func TestBuildRigPortsValidation(t *testing.T) {
	base := Config{}
	if _, err := BuildRigPorts(base, []PortConfig{{Type: ReadOnly, Gen: GenParams{Size: 128, Mode: Zipfian, ZipfTheta: 1.5}}}); err == nil {
		t.Error("bad zipf theta accepted")
	}
	if _, err := BuildRigPorts(base, []PortConfig{{Type: ReadOnly, Gen: GenParams{Size: 100}}}); err == nil {
		t.Error("invalid payload size accepted")
	}
	if _, err := BuildRigPorts(base, []PortConfig{{Type: ReadOnly, Gen: GenParams{Size: 128, Mode: Hotspot, HotRate: 2}}}); err == nil {
		t.Error("bad hot rate accepted")
	}
	// A negative port count is an error, not a makeslice panic.
	if _, err := Run(Config{Ports: -1}); err == nil || !strings.Contains(err.Error(), "negative port count") {
		t.Errorf("Ports -1: %v, want the negative port count error", err)
	}
}

// TestDefaultGenerationDeliberate: the Config zero value builds the
// paper's AC-510 cube, HMC11 (4 GB, 16 banks/vault), on purpose; an
// explicit HMC10 still builds HMC10 rather than being replaced by the
// default, and unknown generations surface as errors, not panics deep
// in the geometry tables.
func TestDefaultGenerationDeliberate(t *testing.T) {
	rig, err := BuildRig(Config{Ports: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rig.Dev.Geometry(), hmc.Geometries(hmc.HMC11); got != want {
		t.Errorf("zero-value config built %v, want %v", got.Gen, want.Gen)
	}
	rig, err = BuildRig(Config{Ports: 1, Generation: hmc.HMC10})
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.Dev.Geometry().SizeBytes; got != 512<<20 {
		t.Errorf("explicit HMC10 built a %d B cube, want 512 MB", got)
	}
	for _, gen := range []hmc.Generation{-1, 99} {
		if _, err := BuildRig(Config{Ports: 1, Generation: gen}); err == nil {
			t.Errorf("generation %d accepted", gen)
		}
	}
}
