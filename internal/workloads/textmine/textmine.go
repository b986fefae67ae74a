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
	"blackboxflow/internal/props"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads"
)

// Mode selects manual annotations or static code analysis (Table 1).
type Mode = workloads.Mode

// Annotation modes.
const (
	ModeSCA    = workloads.ModeSCA
	ModeManual = workloads.ModeManual
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

// Def states the text-mining pipeline at g's sizes:
//
//	doc → tokenize → postag | gene_ner | drug_ner | species_tag → rel_ex → sink
//
// (the four middle stages in their implemented order; the optimizer may
// reorder them freely).
func Def(g *GenParams) *workloads.Def {
	avgWords := float64(g.WordsLo+g.WordsHi) / 2
	// A stage's per-call CPU cost is its scan count times the document
	// width: each simulated NLP pass is a substring search over the text.
	stage := func(name, udf, in string, scans int, sel float64) dataflow.OpDef {
		return dataflow.OpDef{Kind: "map", Name: name, UDF: udf, Inputs: []string{in},
			Selectivity: sel, CPUCostPerCall: float64(scans) * avgWords * 6 / 100}
	}
	flow := dataflow.FlowDef{
		Sources: []dataflow.SourceDef{{Name: "docs", Attrs: []string{"d_id", "d_text"}, Records: float64(g.Docs), AvgWidthByte: avgWords * 6}},
		Attrs:   []string{"t_tokens", "t_pos", "t_genes", "t_drugs", "t_species", "t_relations"},
		Ops: []dataflow.OpDef{
			stage("tokenize", "tokenize", "docs", CostTokenize, 1),
			stage("pos_tag", "posTag", "tokenize", CostPOSTag, 1),
			stage("gene_ner", "geneNER", "pos_tag", CostGeneNER, g.GeneRate),
			stage("drug_ner", "drugNER", "gene_ner", CostDrugNER, g.DrugRate),
			stage("species_tag", "speciesTag", "drug_ner", CostSpecies, g.HumanRate),
			stage("rel_ex", "relEx", "species_tag", CostRelEx, g.RelRate),
		},
		Sink: "rel_ex",
	}
	return &workloads.Def{Script: script(workloads.Layout(&flow)), Flow: flow}
}

// Build builds the text-mining flow with the effects mode asks for.
func Build(mode Mode, g *GenParams) (*Task, error) {
	f, err := Def(g).Build(mode, func(f *dataflow.Flow) map[string]*props.Effect {
		deps, text := []string{"t_tokens"}, []string{"d_text"}
		return map[string]*props.Effect{
			"tokenize":    manualStage(f, nil, text, "t_tokens", false),
			"pos_tag":     manualStage(f, deps, text, "t_pos", false),
			"gene_ner":    manualStage(f, deps, text, "t_genes", true),
			"drug_ner":    manualStage(f, deps, text, "t_drugs", true),
			"species_tag": manualStage(f, deps, text, "t_species", true),
			"rel_ex":      manualStage(f, []string{"t_pos", "t_genes", "t_drugs", "t_species"}, text, "t_relations", true),
		}
	})
	if err != nil {
		return nil, err
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

// script is the PactScript of the six stages over the global layout at.
func script(at map[string]int) string {
	text, tokens := at["d_text"], at["t_tokens"]
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
`, scanLoop(text, CostTokenize), tokens, tokens, scanLoop(text, CostPOSTag), at["t_pos"])

	// Entity detectors: depend on tokens, scan for a marker, filter.
	for _, ner := range []struct {
		name, marker string
		cost, out    int
	}{
		{"geneNER", MarkerGene, CostGeneNER, at["t_genes"]},
		{"drugNER", MarkerDrug, CostDrugNER, at["t_drugs"]},
		{"speciesTag", MarkerSpecies, CostSpecies, at["t_species"]},
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
`, at["t_pos"], at["t_genes"], at["t_drugs"], at["t_species"],
		scanLoop(text, CostRelEx), MarkerRelation, at["t_relations"])
	return b.String()
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
