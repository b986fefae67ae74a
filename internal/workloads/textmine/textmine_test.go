package textmine

import (
	"strings"
	"testing"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

func TestBuildValidates(t *testing.T) {
	for _, mode := range []Mode{ModeSCA, ModeManual} {
		task, err := Build(mode, DefaultGen())
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := task.Flow.Validate(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
	}
}

// TestTable1TextMiningRow: 24 orders under both annotation modes (the four
// middle NLP stages are freely permutable; tokenization is pinned first and
// relation extraction last).
func TestTable1TextMiningRow(t *testing.T) {
	for _, mode := range []Mode{ModeSCA, ModeManual} {
		task, err := Build(mode, DefaultGen())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := optimizer.FromFlow(task.Flow)
		if err != nil {
			t.Fatal(err)
		}
		alts := optimizer.NewEnumerator().Enumerate(tree)
		if len(alts) != 24 {
			t.Errorf("mode %d: %d plans, want 24", mode, len(alts))
		}
		for _, a := range alts {
			s := a.String()
			if !strings.HasPrefix(s, "out(rel_ex(") {
				t.Errorf("relation extraction must stay last: %s", s)
			}
			if !strings.Contains(s, "tokenize(docs)") {
				t.Errorf("tokenization must stay first: %s", s)
			}
		}
	}
}

// TestAllPlansEquivalent executes all 24 orders and compares output bags.
func TestAllPlansEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running soundness sweep")
	}
	g := &GenParams{Docs: 80, WordsLo: 20, WordsHi: 60, GeneRate: 0.4, DrugRate: 0.5, HumanRate: 0.6, RelRate: 0.6, Seed: 5}
	task, _ := Build(ModeSCA, g)
	tree, err := optimizer.FromFlow(task.Flow)
	if err != nil {
		t.Fatal(err)
	}
	alts := optimizer.NewEnumerator().Enumerate(tree)
	est := optimizer.NewEstimator(task.Flow)
	po := optimizer.NewPhysicalOptimizer(est, 4)
	e := engine.New(4)
	for name, ds := range g.Generate(task.Flow) {
		e.AddSource(name, ds)
	}
	var ref record.DataSet
	for i, a := range alts {
		out, _, err := e.Run(po.Optimize(a))
		if err != nil {
			t.Fatalf("plan %s: %v", a, err)
		}
		if i == 0 {
			ref = out
			continue
		}
		if !out.Equal(ref) {
			t.Errorf("plan %s output differs", a)
		}
	}
	if len(ref) == 0 {
		t.Error("no relations extracted; generator too sparse for a meaningful test")
	}
}

// TestResultSemantics: the pipeline keeps exactly the documents containing
// all four markers.
func TestResultSemantics(t *testing.T) {
	g := &GenParams{Docs: 120, WordsLo: 20, WordsHi: 50, GeneRate: 0.5, DrugRate: 0.5, HumanRate: 0.7, RelRate: 0.7, Seed: 8}
	task, _ := Build(ModeSCA, g)
	f := task.Flow
	tree, _ := optimizer.FromFlow(f)
	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, 4)
	e := engine.New(4)
	data := g.Generate(f)
	for name, ds := range data {
		e.AddSource(name, ds)
	}
	out, _, err := e.Run(po.Optimize(tree))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, r := range data["docs"] {
		text := r.Field(f.Attr("d_text")).AsString()
		if strings.Contains(text, MarkerGene) && strings.Contains(text, MarkerDrug) &&
			strings.Contains(text, MarkerSpecies) && strings.Contains(text, MarkerRelation) {
			want[r.Field(f.Attr("d_id")).AsInt()] = true
		}
	}
	if len(out) != len(want) {
		t.Fatalf("out = %d docs, want %d", len(out), len(want))
	}
	for _, r := range out {
		if !want[r.Field(f.Attr("d_id")).AsInt()] {
			t.Errorf("unexpected doc %v in output", r.Field(f.Attr("d_id")))
		}
	}
}

// TestCostOrderingPrefersFilterFirst: the cost-optimal plan runs the
// expensive POS tagger late, behind the selective entity filters.
func TestCostOrderingPrefersFilterFirst(t *testing.T) {
	g := DefaultGen()
	task, _ := Build(ModeSCA, g)
	ranked, err := optimizer.Plan(task.Flow, 4, 0, optimizer.NetProfile{})
	if err != nil {
		t.Fatal(err)
	}
	best, worst := ranked[0], ranked[len(ranked)-1]
	if worst.Cost < 3*best.Cost {
		t.Errorf("cost spread too small: %.0f vs %.0f", best.Cost, worst.Cost)
	}
	// In the best plan the POS tagger must come after at least two of the
	// filtering stages (i.e. appear nearer the root).
	s := best.Tree.String()
	posDepth := strings.Index(s, "pos_tag")
	geneDepth := strings.Index(s, "gene_ner")
	if posDepth > geneDepth {
		t.Errorf("best plan runs pos_tag before gene_ner: %s", s)
	}
}

func TestGenerateMarkers(t *testing.T) {
	g := DefaultGen()
	task, _ := Build(ModeSCA, g)
	f := task.Flow
	data := g.Generate(f)
	if len(data["docs"]) != g.Docs {
		t.Fatalf("docs = %d", len(data["docs"]))
	}
	genes := 0
	for _, r := range data["docs"] {
		if strings.Contains(r.Field(f.Attr("d_text")).AsString(), MarkerGene) {
			genes++
		}
	}
	rate := float64(genes) / float64(g.Docs)
	if rate < g.GeneRate-0.1 || rate > g.GeneRate+0.1 {
		t.Errorf("gene marker rate = %.2f, want ≈ %.2f", rate, g.GeneRate)
	}
}
