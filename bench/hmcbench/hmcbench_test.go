package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the set-up probes re-enter this test binary: a probe
// is this executable started with readyEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(readyEnv) != "" {
		b := &bench{stdout: os.Stdout, procs: &procGroup{}}
		os.Exit(b.run(os.Args[1:], nil))
	}
	os.Exit(m.Run())
}

// runSmoke runs one smoke-size workload in-process and parses its
// detail and result lines.
func runSmoke(t *testing.T, args ...string) (int, childReport) {
	t.Helper()
	var out bytes.Buffer
	b := &bench{stdout: &out, procs: &procGroup{}}
	code := b.run(append([]string{"-smoke", "-out", t.TempDir()}, args...), nil)
	rep, err := parseChild(out.Bytes())
	if err != nil {
		t.Fatalf("%v: no result (exit %d): %v\n%s", args, code, err, out.String())
	}
	return code, rep
}

// declared reads the metric lists BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, label string, got map[string]metricValue, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", label, name, m, unit)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload untraced and one
// traced, and checks each emits exactly the declared metrics with
// their units and no failed op. Every traced run shares one ladder,
// so one traced workload covers the per-layer list.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		code, rep := runSmoke(t, "-workload", w)
		if code != 0 || !rep.Result.Correct || rep.Result.Failed != 0 || rep.Detail.FailFrac != 0 {
			t.Errorf("%s: exit %d, result %+v, fail_frac %g", w, code, rep.Result, rep.Detail.FailFrac)
		}
		checkMetrics(t, w, rep.Result.Metrics, endToEnd)
	}
	code, rep := runSmoke(t, "-workload", wGUPS, "-trace", "1")
	if code != 0 || !rep.Result.Correct || rep.Detail.FailFrac != 0 {
		t.Errorf("traced: exit %d, result correct=%v, fail_frac %g", code, rep.Result.Correct, rep.Detail.FailFrac)
	}
	checkMetrics(t, "traced", rep.Result.Metrics, perLayer)
}

// TestCorruptReferenceFails feeds a wrong digest and a corrupted golden
// copy: every op must fail and the run must exit non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "bench", "hmcbench", "testdata", "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var digests map[string]string
	if err := json.Unmarshal(raw, &digests); err != nil {
		t.Fatal(err)
	}
	digests[digestKey(wGUPS, true)] = digestOf("not the report")
	bad := filepath.Join(t.TempDir(), "digests.json")
	if err := writeJSON(bad, digests); err != nil {
		t.Fatal(err)
	}

	goldens := t.TempDir()
	for _, id := range smokeExperiments {
		for _, ext := range []string{".txt", ".csv"} {
			b, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden", id+ext))
			if err != nil {
				t.Fatal(err)
			}
			if id == smokeExperiments[0] && ext == ".txt" {
				b = append(b, "corrupted\n"...)
			}
			if err := os.WriteFile(filepath.Join(goldens, id+ext), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct{ name, workload, flag, path string }{
		{"digest", wGUPS, "-digests", bad},
		{"golden", wFigures, "-goldens", goldens},
	} {
		code, rep := runSmoke(t, "-workload", tc.workload, tc.flag, tc.path)
		if code == 0 || rep.Result.Correct || rep.Detail.FailFrac != 1 || rep.Result.Failed != rep.Result.Attempted {
			t.Errorf("%s: exit %d, result %+v, fail_frac %g; want every op failed and a non-zero exit",
				tc.name, code, rep.Result, rep.Detail.FailFrac)
		}
	}
}
