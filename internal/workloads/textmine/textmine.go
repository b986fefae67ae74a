// Package textmine implements the biomedical text-mining task of the
// paper's evaluation (Section 7.2): a pipeline of Map operators that apply
// (simulated) NLP components to a document corpus, each component both
// annotating and filtering its input.
//
// The pipeline mirrors the dependency structure the paper describes: a
// preprocessing stage (tokenization) must run first, the relation-extraction
// stage must run last (it consumes every intermediate annotation), and the
// four middle components — POS tagging, gene mention detection, drug
// mention detection, and species tagging — are mutually independent, giving
// 4! = 24 valid operator orders, the plan-space size reported in Table 1.
//
// The components "compute" by scanning the document text (substring
// searches standing in for the paper's automaton/ML-based NLP components),
// so expensive stages are genuinely expensive at run time, and filters
// genuinely shrink intermediate results: optimization potential arises from
// "different filter selectivities and varying execution costs", exactly as
// in the paper.
package textmine

import (
	"fmt"
	"math/rand"
	"strings"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// Mode selects manual annotations or static code analysis (Table 1).
type Mode int

// Annotation modes.
const (
	ModeSCA Mode = iota
	ModeManual
)

// Markers planted in the synthetic corpus; the NLP stage simulators detect
// them with substring scans.
const (
	MarkerGene     = "BRCA1"
	MarkerDrug     = "tamoxifen"
	MarkerSpecies  = "human"
	MarkerRelation = "inhibits"
)

// Stage cost knobs: the number of text scans each component performs,
// simulating the relative CPU weight of the paper's NLP components ("most
// NLP components are very compute-intensive").
const (
	CostTokenize = 4
	CostPOSTag   = 400
	CostGeneNER  = 30
	CostDrugNER  = 30
	CostSpecies  = 8
	CostRelEx    = 80
)

// GenParams scale the synthetic corpus.
type GenParams struct {
	Docs      int
	WordsLo   int // min words per document
	WordsHi   int // max words per document
	GeneRate  float64
	DrugRate  float64
	HumanRate float64
	RelRate   float64 // relation marker rate, conditional on gene and drug
	Seed      int64
}

// DefaultGen returns laptop-scale defaults; the selectivity ladder mirrors
// the paper's setting where entity detectors filter aggressively.
func DefaultGen() *GenParams {
	return &GenParams{
		Docs:      400,
		WordsLo:   60,
		WordsHi:   240,
		GeneRate:  0.30,
		DrugRate:  0.40,
		HumanRate: 0.55,
		RelRate:   0.50,
		Seed:      42,
	}
}

// Task bundles the built flow.
type Task struct {
	Flow *dataflow.Flow
}

// Build constructs the text-mining pipeline:
//
//	doc → tokenize → postag | gene_ner | drug_ner | species_tag → rel_ex → sink
//
// (the four middle stages in their implemented order; the optimizer may
// reorder them freely).
func Build(mode Mode, g *GenParams) (*Task, error) {
	f := dataflow.NewFlow()

	avgWords := float64(g.WordsLo+g.WordsHi) / 2
	doc := f.Source("docs", []string{"d_id", "d_text"},
		dataflow.Hints{Records: float64(g.Docs), AvgWidthBytes: avgWords * 6})

	f.DeclareAttr("t_tokens")
	f.DeclareAttr("t_pos")
	f.DeclareAttr("t_genes")
	f.DeclareAttr("t_drugs")
	f.DeclareAttr("t_species")
	f.DeclareAttr("t_relations")

	prog, err := program(f)
	if err != nil {
		return nil, err
	}
	udf := func(name string) *tac.Func {
		fn, ok := prog.Lookup(name)
		if !ok {
			panic("textmine: missing UDF " + name)
		}
		return fn
	}

	// A stage's per-call CPU cost is its scan count times the document
	// width: each simulated NLP pass is a substring search over the text.
	cpu := func(scans int) float64 { return float64(scans) * avgWords * 6 / 100 }

	tok := f.Map("tokenize", udf("tokenize"), doc,
		dataflow.Hints{Selectivity: 1, CPUCostPerCall: cpu(CostTokenize)})
	pos := f.Map("pos_tag", udf("posTag"), tok,
		dataflow.Hints{Selectivity: 1, CPUCostPerCall: cpu(CostPOSTag)})
	gene := f.Map("gene_ner", udf("geneNER"), pos,
		dataflow.Hints{Selectivity: g.GeneRate, CPUCostPerCall: cpu(CostGeneNER)})
	drug := f.Map("drug_ner", udf("drugNER"), gene,
		dataflow.Hints{Selectivity: g.DrugRate, CPUCostPerCall: cpu(CostDrugNER)})
	species := f.Map("species_tag", udf("speciesTag"), drug,
		dataflow.Hints{Selectivity: g.HumanRate, CPUCostPerCall: cpu(CostSpecies)})
	rel := f.Map("rel_ex", udf("relEx"), species,
		dataflow.Hints{Selectivity: g.RelRate, CPUCostPerCall: cpu(CostRelEx)})

	f.SetSink("out", rel)

	if mode == ModeSCA {
		if err := f.DeriveEffects(false); err != nil {
			return nil, err
		}
	} else {
		tok.SetEffect(manualStage(f, nil, []string{"d_text"}, "t_tokens", false))
		pos.SetEffect(manualStage(f, []string{"t_tokens"}, []string{"d_text"}, "t_pos", false))
		gene.SetEffect(manualStage(f, []string{"t_tokens"}, []string{"d_text"}, "t_genes", true))
		drug.SetEffect(manualStage(f, []string{"t_tokens"}, []string{"d_text"}, "t_drugs", true))
		species.SetEffect(manualStage(f, []string{"t_tokens"}, []string{"d_text"}, "t_species", true))
		rel.SetEffect(manualStage(f,
			[]string{"t_pos", "t_genes", "t_drugs", "t_species"},
			[]string{"d_text"}, "t_relations", true))
	}
	return &Task{Flow: f}, nil
}

// manualStage annotates one NLP stage: it depends on deps (reads), scans
// the text fields, writes its own annotation attribute, and optionally
// filters.
func manualStage(f *dataflow.Flow, deps, scans []string, out string, filters bool) *props.Effect {
	e := props.NewEffect(1)
	for _, d := range deps {
		e.Reads.Add(f.Attr(d))
	}
	for _, s := range scans {
		e.Reads.Add(f.Attr(s))
	}
	e.Sets = props.NewFieldSet(f.Attr(out))
	e.CopiesParam[0] = true
	if filters {
		e.EmitMin, e.EmitMax = 0, 1
		e.CondReads = e.Reads.Clone()
	} else {
		e.EmitMin, e.EmitMax = 1, 1
	}
	return e
}

// scanLoop is the PactScript of a stage's compute: it scans the text field
// n times, simulating an expensive NLP component. Each scan is a real
// substring search over the document text.
func scanLoop(textAttr, n int) string {
	return fmt.Sprintf(`txt := ir[%d]
	i := 0
	while i < %d {
		w := txt contains "zqzq"
		i := i + 1
	}`, textAttr, n)
}

// program compiles the six stage UDFs from PactScript.
func program(f *dataflow.Flow) (*tac.Program, error) {
	text, tokens := f.Attr("d_text"), f.Attr("t_tokens")
	var b strings.Builder

	// tokenize: token count annotation, no filtering; posTag: expensive,
	// depends on tokens, no filtering.
	fmt.Fprintf(&b, `
map tokenize(ir) {
	%s
	out := copy(ir)
	out[%d] = len(txt)
	emit out
}

map posTag(ir) {
	tk := ir[%d]
	%s
	out := copy(ir)
	out[%d] = tk / 2
	emit out
}
`, scanLoop(text, CostTokenize), tokens, tokens, scanLoop(text, CostPOSTag), f.Attr("t_pos"))

	// Entity detectors: depend on tokens, scan for a marker, filter.
	for _, ner := range []struct {
		name, marker string
		cost, out    int
	}{
		{"geneNER", MarkerGene, CostGeneNER, f.Attr("t_genes")},
		{"drugNER", MarkerDrug, CostDrugNER, f.Attr("t_drugs")},
		{"speciesTag", MarkerSpecies, CostSpecies, f.Attr("t_species")},
	} {
		fmt.Fprintf(&b, `
map %s(ir) {
	tk := ir[%d]
	%s
	if txt contains %q {
		out := copy(ir)
		out[%d] = tk
		emit out
	}
}
`, ner.name, tokens, scanLoop(text, ner.cost), ner.marker, ner.out)
	}

	// relEx: depends on all four annotations, filters on the relation
	// marker.
	fmt.Fprintf(&b, `
map relEx(ir) {
	p := ir[%d]
	ge := ir[%d]
	dr := ir[%d]
	sp := ir[%d]
	%s
	if txt contains %q {
		out := copy(ir)
		out[%d] = p + ge + dr + sp
		emit out
	}
}
`, f.Attr("t_pos"), f.Attr("t_genes"), f.Attr("t_drugs"), f.Attr("t_species"),
		scanLoop(text, CostRelEx), MarkerRelation, f.Attr("t_relations"))

	return frontend.Compile(b.String())
}

var fillerWords = []string{
	"study", "analysis", "protein", "expression", "cell", "pathway",
	"binding", "receptor", "clinical", "patient", "tissue", "sample",
	"result", "method", "significant", "treatment", "response", "tumor",
	"sequence", "variant", "assay", "control", "dose", "effect",
}

// Generate produces the synthetic corpus with planted markers at the
// configured rates.
func (g *GenParams) Generate(f *dataflow.Flow) map[string]record.DataSet {
	rng := rand.New(rand.NewSource(g.Seed))
	width := f.NumAttrs()
	idAttr, textAttr := f.Attr("d_id"), f.Attr("d_text")

	var docs record.DataSet
	for d := 0; d < g.Docs; d++ {
		n := g.WordsLo + rng.Intn(g.WordsHi-g.WordsLo+1)
		words := make([]string, 0, n+4)
		for i := 0; i < n; i++ {
			words = append(words, fillerWords[rng.Intn(len(fillerWords))])
		}
		hasGene := rng.Float64() < g.GeneRate
		hasDrug := rng.Float64() < g.DrugRate
		insert := func(w string) {
			at := rng.Intn(len(words) + 1)
			words = append(words[:at], append([]string{w}, words[at:]...)...)
		}
		if hasGene {
			insert(MarkerGene)
		}
		if hasDrug {
			insert(MarkerDrug)
		}
		if rng.Float64() < g.HumanRate {
			insert(MarkerSpecies)
		}
		if hasGene && hasDrug && rng.Float64() < g.RelRate {
			insert(MarkerRelation)
		}
		r := record.NewRecord(width)
		r.SetField(idAttr, record.Int(int64(d)))
		r.SetField(textAttr, record.String(strings.Join(words, " ")))
		docs = append(docs, r)
	}
	return map[string]record.DataSet{"docs": docs}
}
