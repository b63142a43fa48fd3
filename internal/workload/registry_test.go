package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// Registry invariants: the contract benchtool, bench_test and the CI
// smoke pass rely on.

// legacyBenchtoolIDs are the experiment ids benchtool's hand-written
// switch accepted before the registry existed; every one must resolve.
var legacyBenchtoolIDs = []string{
	"fig1", "fig5a", "fig5b", "fig5c", "fig5d", "fig6", "fig7", "fig8",
	"fig9", "fig10", "table2", "scalability", "security", "ablation", "coalesce",
}

func TestRegistryNamesUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments.All() {
		if e.Name == "" {
			t.Fatal("experiment with empty name registered")
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Fatalf("%s: no Run function", e.Name)
		}
		if e.Figure == "" || e.Doc == "" {
			t.Fatalf("%s: descriptor missing Figure/Doc", e.Name)
		}
	}
	if len(Experiments.Names()) != len(Experiments.All()) {
		t.Fatal("Names and All disagree")
	}
}

func TestRegistryResolvesEveryLegacyFigureID(t *testing.T) {
	for _, id := range legacyBenchtoolIDs {
		if _, ok := Experiments.Lookup(id); !ok {
			t.Errorf("legacy benchtool id %q not resolvable", id)
		}
	}
	if len(Experiments.All()) < len(legacyBenchtoolIDs) {
		t.Fatalf("registry holds %d experiments, fewer than the %d legacy ids",
			len(Experiments.All()), len(legacyBenchtoolIDs))
	}
}

func TestRegistryQuickScaleParamsValid(t *testing.T) {
	for _, e := range Experiments.All() {
		seen := map[string]bool{}
		for _, s := range e.ParamSpecs {
			if s.Name == "" || seen[s.Name] {
				t.Fatalf("%s: bad or duplicate param %q", e.Name, s.Name)
			}
			seen[s.Name] = true
			if s.Default <= 0 {
				t.Errorf("%s: param %q default %d not positive", e.Name, s.Name, s.Default)
			}
			if s.Quick < 0 || s.Quick > s.Default {
				t.Errorf("%s: param %q quick %d outside [0, default %d]", e.Name, s.Name, s.Quick, s.Default)
			}
			if strings.HasSuffix(s.Name, "seed") && s.Quick != 0 {
				t.Errorf("%s: seed param %q must not quick-scale", e.Name, s.Name)
			}
		}
		// Quick params must actually resolve: the -quick value substitutes
		// only where declared, defaults elsewhere.
		p := e.Params(true)
		for _, s := range e.ParamSpecs {
			want := s.Default
			if s.Quick != 0 {
				want = s.Quick
			}
			if got := p.Int64(s.Name); got != want {
				t.Errorf("%s: quick param %s = %d, want %d", e.Name, s.Name, got, want)
			}
		}
	}
}

func TestRegistryRegisterRejectsBadDescriptors(t *testing.T) {
	expectPanic := func(name string, e *Experiment, r *Registry) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		r.Register(e)
	}
	run := func(Params) (*Table, error) { return &Table{}, nil }
	expectPanic("empty name", &Experiment{Run: run}, NewRegistry())
	expectPanic("nil Run", &Experiment{Name: "x"}, NewRegistry())
	expectPanic("duplicate", &Experiment{Name: "x", Run: run},
		NewRegistry(&Experiment{Name: "x", Run: run}))
	expectPanic("quick > default", &Experiment{Name: "x", Run: run,
		ParamSpecs: []ParamSpec{{Name: "ops", Default: 10, Quick: 20}}}, NewRegistry())
	expectPanic("quick-scaled seed", &Experiment{Name: "x", Run: run,
		ParamSpecs: []ParamSpec{{Name: "seed", Default: 10, Quick: 5}}}, NewRegistry())
}

func TestRegistrySuggestion(t *testing.T) {
	cases := map[string]string{
		"fig5":        "fig5a", // truncated
		"fig5B":       "fig5b", // case slip
		"tabel2":      "table2",
		"coalescing":  "coalesce",
		"scalabilty":  "scalability",
		"qqqqqqqqqqq": "", // nothing plausible
	}
	for in, want := range cases {
		if got := Experiments.Suggest(in); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParamsSetUnknownKeyErrors(t *testing.T) {
	e, _ := Experiments.Lookup("fig9")
	p := e.Params(false)
	if err := p.Set("bogus", 1); err == nil {
		t.Fatal("Set of unknown param did not error")
	} else if !strings.Contains(err.Error(), "ops") {
		t.Errorf("error does not list available params: %v", err)
	}
	if err := p.Set("ops", 42); err != nil {
		t.Fatal(err)
	}
	if p.Int("ops") != 42 {
		t.Fatalf("override did not stick: %d", p.Int("ops"))
	}
	if err := p.SetString("ops", "not-a-number"); err == nil {
		t.Fatal("SetString accepted a non-integer")
	}
}

// TestServerZeroWorkersErrors: a server run with no lanes is a bad
// parameter, reported as an error, not a divide-by-zero panic while
// striping the TX ring.
func TestServerZeroWorkersErrors(t *testing.T) {
	e, ok := Experiments.Lookup("server")
	if !ok {
		t.Fatal("server not registered")
	}
	for _, w := range []int64{0, -1} {
		p := e.Params(true)
		if err := p.Set("workers", w); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(p); err == nil || !strings.Contains(err.Error(), "lane") {
			t.Fatalf("workers=%d: err = %v, want a lane-count error", w, err)
		}
	}
}

// TestTableRenderAndJSONShape pins the rendering contract on a toy
// table: framed title, single-space-joined formatted cells, notes, and
// JSON that round-trips with rows matching the schema.
func TestTableRenderAndJSONShape(t *testing.T) {
	tab := &Table{
		Title: "toy",
		Columns: []Column{
			Col("name", "%-6s", "%-6s"),
			Col("val", "%8.1f", "%8s"),
		},
	}
	tab.AddRow("a", 1.25)
	tab.AddRow("b", 2.0)
	tab.Notef("note %d", 7)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	want := fmt.Sprintf("\n== toy ==\n%-6s %8s\n%-6s %8.1f\n%-6s %8.1f\nnote 7\n",
		"name", "val", "a", 1.25, "b", 2.0)
	if buf.String() != want {
		t.Fatalf("render mismatch:\n%q\nwant\n%q", buf.String(), want)
	}

	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Title   string  `json:"title"`
		Columns []any   `json:"columns"`
		Rows    [][]any `json:"rows"`
		Notes   []string
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "toy" || len(back.Rows) != 2 || len(back.Rows[0]) != len(back.Columns) {
		t.Fatalf("JSON shape wrong: %s", b)
	}

	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity did not panic")
		}
	}()
	tab.AddRow("only-one-cell")
}
