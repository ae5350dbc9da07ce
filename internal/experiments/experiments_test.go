package experiments

import (
	"errors"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	// 3 tables + figure 3 + figures 6-18 (4,5 are photos/diagrams of
	// the physical rig) = 17 reproducible artifacts.
	if len(all) != 17 {
		t.Fatalf("%d experiments registered, want 17", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"table1", "table2", "table3", "figure3", "figure6", "figure9", "figure14", "figure18"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	full := map[string]bool{}
	for _, e := range AllWithExtensions() {
		if full[e.ID] {
			t.Errorf("duplicate id %s in the full registry", e.ID)
		}
		full[e.ID] = true
	}
	for _, id := range []string{"figure7", "scn-uniform"} {
		if e, err := ByID(id); err != nil || e.ID != id {
			t.Errorf("ByID(%q) = %q, %v", id, e.ID, err)
		}
	}
	if _, err := ByID("figure99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTablesRender(t *testing.T) {
	for _, rep := range []Report{TableI(), TableII(), TableIII(), Figure3()} {
		txt := rep.Table()
		csv := rep.CSV()
		if len(txt) < 100 || len(csv) < 50 {
			t.Errorf("%s rendered too little output", rep.ID)
		}
	}
	// Spot-check headline values.
	if !strings.Contains(TableI().Table(), "256") {
		t.Error("Table I missing the 256-bank count")
	}
	if !strings.Contains(TableIII().Table(), "71.6") {
		t.Error("Table III missing Cfg4 idle temperature")
	}
	if !strings.Contains(Figure3().Table(), "bits 7-8") {
		t.Error("Figure 3 missing the 128 B vault field position")
	}
}

func TestGridCSVEscaping(t *testing.T) {
	g := Grid{Title: "x", Cols: []string{"a", "b"}}
	g.AddRow(`va"l`, "w,ith")
	csv := g.CSV()
	if !strings.Contains(csv, `"va""l"`) || !strings.Contains(csv, `"w,ith"`) {
		t.Fatalf("CSV escaping broken: %q", csv)
	}
}

func TestParallelMapOrder(t *testing.T) {
	o := Quick()
	o.Workers = 4
	got, err := parallelMap(o, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d got %d", i, v)
		}
	}
	// Serial path.
	o.Workers = 1
	got, err = parallelMap(o, 5, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 5 || got[4] != 4 {
		t.Fatal("serial parallelMap broken")
	}
	if out, err := parallelMap(o, 0, func(i int) (int, error) { return i, nil }); err != nil || len(out) != 0 {
		t.Fatal("empty map broken")
	}
	// A cell error fails the map.
	boom := errors.New("boom")
	if _, err := parallelMap(o, 5, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("cell error: got %v, want %v", err, boom)
	}
}
