// Addrmap: explore the HMC address-mapping design space the paper
// describes in Section II-C. Shows (1) how a 4 KB OS page spreads
// over vaults and banks under each max-block-size mode register,
// (2) what the Figure 6 mask positions do to reachable structure,
// and (3) the bandwidth consequence of each mapping restriction.
package main

import (
	"fmt"

	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
	"hmcsim/internal/workloads"
)

func main() {
	geo := hmc.Geometries(hmc.HMC11)
	fmt.Printf("device: %s — %d vaults x %d banks, %d B pages, %d B vault bus\n\n",
		geo.Gen, geo.Vaults, geo.BanksPerVault, geo.PageBytes, geo.BusGranularity)

	// 1. OS-page spreading per mode register.
	fmt.Println("4 KB OS page coverage per Address Mapping Mode Register:")
	for _, mb := range []hmc.MaxBlockSize{hmc.Block128, hmc.Block64, hmc.Block32, hmc.Block16} {
		m := hmc.MustAddressMap(geo, mb)
		v, b := m.PageCoverage()
		mode, _ := mb.ModeRegisterValue()
		fmt.Printf("  max block %3d B (mode %#x): %2d vaults x %2d banks = %3d-way BLP\n",
			int(mb), mode, v, b, v*b)
	}

	// 2. Structure reachable under each Figure 6 mask.
	amap := hmc.MustAddressMap(geo, hmc.Block128)
	fmt.Println("\nFigure 6 mask positions (8 bits forced to zero):")
	for _, mp := range workloads.Figure6Masks() {
		v, b := workloads.Coverage(amap, mp.ZeroMask)
		fmt.Printf("  bits %-6s -> %2d vaults x %2d banks\n", mp.Name, v, b)
	}

	// 3. Bandwidth consequence of selected restrictions.
	fmt.Println("\nbandwidth under selected mappings (128 B random reads):")
	run := func(label string, zero uint64) {
		res := gups.MustRun(gups.Config{
			Type:     gups.ReadOnly,
			ZeroMask: zero,
			Measure:  400 * sim.Microsecond,
		})
		fmt.Printf("  %-28s %6.2f GB/s raw\n", label, res.RawGBps)
	}
	run("full device", 0)
	run("one quadrant (4 vaults)", workloads.VaultPattern(4).ZeroMask)
	run("one vault", workloads.VaultPattern(1).ZeroMask)
	run("one bank", workloads.BankPattern(1).ZeroMask)

	fmt.Println("\ntakeaway: sequential max blocks stripe vaults first, then banks;")
	fmt.Println("fine-tuning the mode register trades block size for bank-level parallelism.")
}
