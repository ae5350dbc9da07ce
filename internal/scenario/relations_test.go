package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hmcsim/internal/sim"
)

// TestTenantSplitOnPortRunner pins the tenant-split relation (R3 in
// the ROADMAP's list of paths that must agree): on the port runner,
// a tenant of k ports and k one-port tenants with the same fields and
// the same Home are the same hardware. buildRigs keys each port's
// traffic by its global port index, so every library spec that takes
// the port runner must measure the same total both ways.
func TestTenantSplitOnPortRunner(t *testing.T) {
	o := Options{Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond, Seed: 1}
	var names []string
	for _, spec := range Library() {
		if spec.withDefaults().Backend != "hmc" || spec.needsGenericDrivers() {
			continue
		}
		names = append(names, spec.Name)
		split := spec
		split.Tenants = nil
		for _, tn := range spec.withDefaults().Tenants {
			for k := range tn.Ports {
				one := tn
				one.Name = fmt.Sprintf("%s#%d", tn.Name, k)
				one.Ports = 1
				split.Tenants = append(split.Tenants, one)
			}
		}
		whole, err := Run(spec, o)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		parts, err := Run(split, o)
		if err != nil {
			t.Fatalf("%s split: %v", spec.Name, err)
		}
		// The realized open-loop rate is rounded per tenant (one pacing
		// interval per tenant's aggregate rate), so the split's sum of
		// k one-port rates differs from one k-port rate by construction.
		whole.Total.OfferedMRPS, parts.Total.OfferedMRPS = 0, 0
		if !reflect.DeepEqual(whole.Total, parts.Total) {
			t.Errorf("%s: split into one-port tenants moved the total:\n whole %+v\n split %+v",
				spec.Name, whole.Total, parts.Total)
		}
	}
	want := []string{"uniform", "zipfian", "hotspot", "mixed-rw", "seqjump", "open-loop", "tenants-4", "hmc-boards"}
	if !slices.Equal(names, want) {
		t.Errorf("port-runner specs = %v, want %v", names, want)
	}
}
