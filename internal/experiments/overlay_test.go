package experiments

import (
	"strings"
	"testing"

	"hmcsim/internal/scenario"
)

// TestInvalidOverlaysReturnErrors: an unparsable traffic overlay or an
// invalid fault plan makes every scenario-backed experiment return an
// error — never panic a worker. Every scn-* entry runs under the
// overlay as given, so each must fail; families that replace the
// overlay (or never read it) may succeed.
func TestInvalidOverlaysReturnErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the extension registry twice")
	}
	for name, set := range map[string]func(*Options){
		"traffic": func(o *Options) { o.Traffic = "bogus" },
		"faults":  func(o *Options) { o.Faults = scenario.Faults{Plan: "rate=9"} },
	} {
		o := Quick()
		set(&o)
		for _, e := range AllWithExtensions() {
			scn := strings.HasPrefix(e.ID, "scn-")
			if !scn && !strings.HasPrefix(e.ID, "ext-") && e.ID != "scenarios" && e.ID != "sharded" {
				continue
			}
			if _, err := e.Run(o); scn && err == nil {
				t.Errorf("%s with an invalid %s overlay: no error", e.ID, name)
			}
		}
	}
}
