package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmcsim/internal/scenario"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run 'TestGoldenQuick|TestGoldenSum' -update
//
// Review the diff before committing — a golden change means the
// simulated results changed, so scenario.EngineVersion must move too
// (TestGoldenSum).
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenQuick pins the text and CSV outputs of every registered
// experiment at -quick fidelity (the exact artifacts `cmd/figures
// -quick` writes), so a refactor cannot silently change the paper's
// reproduced numbers. Results are deterministic in the worker count
// (see the determinism tests), so the comparison is byte-exact.
func TestGoldenQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration runs the full quick registry")
	}
	opts := Quick()
	for _, e := range AllWithExtensions() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.ID+".txt", rep.Table())
			checkGolden(t, e.ID+".csv", rep.CSV())
		})
	}
}

// TestGoldenSum ties the goldens to scenario.EngineVersion:
// testdata/goldens.sum holds the version and one SHA-256 over every
// file in testdata/golden, so goldens that move under an unchanged
// version fail here. After bumping the version, -update re-records the
// sum; it refuses to record moved goldens under the old version.
func TestGoldenSum(t *testing.T) {
	const path = "testdata/goldens.sum"
	sum, err := goldenSum(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	version, pinned, _ := strings.Cut(strings.TrimSpace(string(raw)), " ")
	switch {
	case version == scenario.EngineVersion && pinned == sum:
	case version == scenario.EngineVersion:
		t.Fatalf("goldens changed under EngineVersion %s: bump scenario.EngineVersion, then re-run with -update", version)
	case *update:
		if err := os.WriteFile(path, []byte(scenario.EngineVersion+" "+sum+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("EngineVersion moved from %s to %s: re-run with -update to record the goldens under it", version, scenario.EngineVersion)
	}
}

// goldenSum hashes every file in dir, name and contents, in name
// order.
func goldenSum(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; diff:\n%s\n(run with -update if the change is intended)",
			name, goldenDiff(string(want), got))
	}
}

// goldenDiff renders a compact first-divergence report (full diffs of
// 20-line tables are noise; the first differing line localizes it).
func goldenDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "(no line-level difference; whitespace?)"
}
