package gups

import (
	"testing"

	"hmcsim/internal/sim"
)

// TestCalibrationReport is a diagnostic that prints the model's
// headline numbers next to the paper's measured values. Run with
// `go test -run Calibration -v ./internal/gups` while tuning
// hmc.DefaultParams. It only fails on egregious (>40%) drift of the
// three anchor points; the tighter per-figure assertions live in the
// experiments package.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	short := Config{Warmup: 100 * sim.Microsecond, Measure: 400 * sim.Microsecond}

	run := func(ty ReqType, size int, zero uint64) Result {
		cfg := short
		cfg.Type = ty
		cfg.Size = size
		cfg.ZeroMask = zero
		return MustRun(cfg)
	}

	ro := run(ReadOnly, 128, 0)
	wo := run(WriteOnly, 128, 0)
	rw := run(ReadModifyWrite, 128, 0)
	t.Logf("ro  16 vaults 128B: %v", ro)
	t.Logf("wo  16 vaults 128B: %v", wo)
	t.Logf("rw  16 vaults 128B: %v", rw)

	ro32 := run(ReadOnly, 32, 0)
	ro64 := run(ReadOnly, 64, 0)
	t.Logf("ro  16 vaults  64B: %v", ro64)
	t.Logf("ro  16 vaults  32B: %v", ro32)

	oneVault := uint64(0x7f0 &^ 0) // vault+offset bits 4..10 forced -> vault 0
	_ = oneVault
	v1 := run(ReadOnly, 128, 0x780)  // bits 7-10: vault 0 only
	b1 := run(ReadOnly, 128, 0x7f80) // bits 7-14: bank 0 vault 0
	t.Logf("ro   1 vault  128B: %v", v1)
	t.Logf("ro   1 bank   128B: %v", b1)

	check := func(name string, got, want float64) {
		if got < want*0.6 || got > want*1.4 {
			t.Errorf("%s = %.2f, paper ~%.2f (>40%% drift)", name, got, want)
		}
	}
	check("ro raw GB/s", ro.RawGBps, 21.5)
	check("wo raw GB/s", wo.RawGBps, 12.5)
	check("rw raw GB/s", rw.RawGBps, 25)
	check("ro 32B MRPS", ro32.MRPS, 300)
	check("1-vault raw GB/s", v1.RawGBps, 11.5)
	check("1-bank raw GB/s", b1.RawGBps, 2.6)
	check("1-bank high-load latency us", b1.ReadHistNs.Mean()/1000, 24.2)
	check("16-vault 32B high-load latency ns", ro32.ReadHistNs.Mean(), 1966)
}
