package main

import (
	"testing"

	"hmcsim/internal/hmc"
	"hmcsim/internal/workloads"
)

// TestAddrmapSmoke compiles the example and exercises its core path:
// page-coverage per mode register and the Figure 6 mask positions.
func TestAddrmapSmoke(t *testing.T) {
	geo := hmc.Geometries(hmc.HMC11)
	m := hmc.MustAddressMap(geo, hmc.Block128)
	v, b := m.PageCoverage()
	if v != 16 || b != 2 {
		t.Errorf("128 B max block: 4 KB page covers %d vaults x %d banks, want 16 x 2", v, b)
	}
	for _, pos := range workloads.Figure6Masks() {
		vaults, banks := workloads.Coverage(m, pos.ZeroMask)
		if vaults < 1 || banks < 1 {
			t.Errorf("mask %s leaves no reachable structure", pos.Name)
		}
	}
}
