package tac_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// The lowered-vs-reference differential: every call the Runner makes must
// be indistinguishable from the frozen reference interpreter
// (interp_ref_test.go) — the same records in the same order, the same
// number emitted before an error, the same error text, the same sink-error
// classification — at the default step limit and at every limit 1…64, so
// the step-limit error fires at the same instruction.

// caller is the call surface a Runner and the reference share.
type caller interface {
	Map(record.Record, func(record.Record) error) error
	Binary(record.Record, record.Record, func(record.Record) error) error
	Reduce(tac.GroupSource, func(record.Record) error) error
	CoGroup(tac.GroupSource, tac.GroupSource, func(record.Record) error) error
}

// input is one call's arguments: the records of a Map or Binary call, the
// groups of a Reduce or CoGroup call.
type input struct {
	recs   [2]record.Record
	groups [2]tac.Records
}

func (in input) clone() input {
	c := input{}
	for i := range in.recs {
		if in.recs[i] != nil {
			c.recs[i] = in.recs[i].Clone()
		}
		for _, r := range in.groups[i] {
			c.groups[i] = append(c.groups[i], r.Clone())
		}
	}
	return c
}

// outcome is what one call did. snap holds each emitted record as it was
// when emitted, so a record written after emit shows.
type outcome struct {
	out, snap []record.Record
	err       string
	sinkErr   bool
}

var errSinkFull = errors.New("sink full")

// invoke makes one call; the sink fails on emit number failAt (0: never).
func invoke(c caller, kind tac.Kind, in input, failAt int) outcome {
	var o outcome
	emit := func(r record.Record) error {
		o.out = append(o.out, r)
		o.snap = append(o.snap, r.Clone())
		if len(o.out) == failAt {
			return errSinkFull
		}
		return nil
	}
	var err error
	switch kind {
	case tac.KindMap:
		err = c.Map(in.recs[0], emit)
	case tac.KindBinary:
		err = c.Binary(in.recs[0], in.recs[1], emit)
	case tac.KindReduce:
		err = c.Reduce(in.groups[0], emit)
	default:
		err = c.CoGroup(in.groups[0], in.groups[1], emit)
	}
	if err != nil {
		o.err = err.Error()
		_, o.sinkErr = tac.AsEmitError(err)
	}
	return o
}

// sameValue is strict equality: same kind, and floats bit for bit (so NaN
// equals NaN, and -0 differs from 0).
func sameValue(a, b record.Value) bool {
	if a.Kind() == record.KindFloat && b.Kind() == record.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

func sameRecord(a, b record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameInput(a, b input) bool {
	for i := range a.recs {
		if !sameRecord(a.recs[i], b.recs[i]) || len(a.groups[i]) != len(b.groups[i]) {
			return false
		}
		for j := range a.groups[i] {
			if !sameRecord(a.groups[i][j], b.groups[i][j]) {
				return false
			}
		}
	}
	return true
}

// shares reports whether two records are the same storage.
func shares(a, b record.Record) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// pair is one function under both implementations at one step limit, each
// runner reused across calls the way the engine reuses them.
type pair struct {
	f        *tac.Func
	limit    int
	low, ref caller
}

// newPair returns nil for a function no Runner can be built for.
func newPair(t testing.TB, f *tac.Func, limit int) *pair {
	ip := tac.NewInterp().WithStepLimit(limit)
	low, err := ip.NewRunner(f, f.Kind)
	if err != nil {
		return nil
	}
	ref, err := ip.NewRefRunner(f, f.Kind)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return &pair{f: f, limit: limit, low: low, ref: ref}
}

// check runs in through both, reports the first difference, and returns
// whether the call ran out of steps.
func (p *pair) check(t testing.TB, in input, failAt int) bool {
	t.Helper()
	before := in.clone()
	got := invoke(p.low, p.f.Kind, in, failAt)
	if !sameInput(in, before) {
		t.Fatalf("%s (limit %d): the Runner wrote its input\n%s", p.f.Name, p.limit, p.f)
	}
	want := invoke(p.ref, p.f.Kind, in, failAt)
	where := func() string {
		return fmt.Sprintf("%s (limit %d, sink fails at %d) on %v / %v\n%s", p.f.Name, p.limit, failAt, in.recs, in.groups, p.f)
	}
	if got.err != want.err || got.sinkErr != want.sinkErr {
		t.Fatalf("%s: error %q (sink %v), reference %q (sink %v)", where(), got.err, got.sinkErr, want.err, want.sinkErr)
	}
	if len(got.out) != len(want.out) {
		t.Fatalf("%s: emitted %d records, reference %d", where(), len(got.out), len(want.out))
	}
	for i := range got.out {
		if !sameRecord(got.out[i], want.out[i]) {
			t.Fatalf("%s: record %d = %v, reference %v", where(), i, got.out[i], want.out[i])
		}
		if !sameRecord(got.out[i], got.snap[i]) {
			t.Fatalf("%s: record %d changed after it was emitted: %v, emitted as %v", where(), i, got.out[i], got.snap[i])
		}
		for j := 0; j < i; j++ {
			if shares(got.out[i], got.out[j]) {
				t.Fatalf("%s: records %d and %d share storage", where(), j, i)
			}
		}
		for _, r := range append(in.recs[:], append(in.groups[0], in.groups[1]...)...) {
			if shares(got.out[i], r) {
				t.Fatalf("%s: record %d shares storage with an input", where(), i)
			}
		}
	}
	return strings.Contains(got.err, "exceeded step limit")
}

// limits are the step limits every function is compared at.
func limits(deflt int) []int {
	ls := []int{deflt}
	for n := 1; n <= 64; n++ {
		ls = append(ls, n)
	}
	return ls
}

// compareFunc compares f on every input at every limit; at the first limit
// the sink also fails on the first emit. A function that exhausts the
// first limit is compared on its remaining inputs at the small limits only:
// at the default, every further call would cost ten million steps a side.
func compareFunc(t testing.TB, f *tac.Func, ins []input, deflt int) {
	t.Helper()
	for i, limit := range limits(deflt) {
		p := newPair(t, f, limit)
		if p == nil {
			return
		}
		for _, in := range ins {
			if p.check(t, in, 0) && i == 0 {
				break
			}
			if i == 0 {
				p.check(t, in, 1)
			}
		}
	}
}

// gen draws the random half of the inputs.
type gen struct{ rng *rand.Rand }

var (
	randInts    = []int64{0, 1, -1, 2, 3, 7, 40, -40, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	randFloats  = []float64{0, math.Copysign(0, -1), 0.5, -0.5, 0.25, 1.5, -2.5, 3, 1e300, math.Inf(1), math.NaN()}
	randStrings = []string{"", "a", "zqzq", "BRCA1 tamoxifen", "human inhibits", "FRANCE", "GERMANY", "x zqzq y"}
)

func (g gen) value() record.Value {
	switch g.rng.Intn(5) {
	case 0:
		return record.Null
	case 1:
		if g.rng.Intn(2) == 0 {
			return record.Int(randInts[g.rng.Intn(len(randInts))])
		}
		return record.Int(int64(g.rng.Intn(21) - 10))
	case 2:
		if g.rng.Intn(2) == 0 {
			return record.Float(randFloats[g.rng.Intn(len(randFloats))])
		}
		return record.Float(float64(g.rng.Intn(41)-20) / 4)
	case 3:
		return record.String(randStrings[g.rng.Intn(len(randStrings))])
	}
	return record.Bool(g.rng.Intn(2) == 0)
}

func (g gen) record(maxWidth int) record.Record {
	r := make(record.Record, g.rng.Intn(maxWidth+1))
	for i := range r {
		r[i] = g.value()
	}
	return r
}

// inputs builds n calls of every kind from the record pool.
func (g gen) inputs(pool []record.Record, n int) []input {
	pick := func() record.Record { return pool[g.rng.Intn(len(pool))] }
	group := func() tac.Records {
		var grp tac.Records
		for k := g.rng.Intn(4); k > 0; k-- {
			grp = append(grp, pick())
		}
		return grp
	}
	ins := make([]input, n)
	for i := range ins {
		ins[i] = input{recs: [2]record.Record{pick(), pick()}, groups: [2]tac.Records{group(), group()}}
	}
	return ins
}

// flowPool is the record pool of one workload: generated source records,
// joined ones (one record per source, merged the way concat merges), joined
// ones with a field overwritten, and random records of widths 0…NumAttrs+2.
func flowPool(g gen, f *dataflow.Flow, data map[string]record.DataSet) []record.Record {
	var pool, joined []record.Record
	var sources []record.DataSet
	for _, name := range slices.Sorted(maps.Keys(data)) {
		if ds := data[name]; len(ds) > 0 {
			sources = append(sources, ds)
			pool = append(pool, ds[:min(len(ds), 12)]...)
		}
	}
	for k := 0; k < 24; k++ {
		var j record.Record
		for _, ds := range sources {
			j = j.Merge(ds[g.rng.Intn(len(ds))])
		}
		joined = append(joined, j)
	}
	pool = append(pool, joined...)
	for _, j := range joined {
		m := j.Clone()
		if len(m) > 0 {
			m[g.rng.Intn(len(m))] = g.value()
		}
		pool = append(pool, m)
	}
	for k := 0; k < 24; k++ {
		pool = append(pool, g.record(f.NumAttrs()+2))
	}
	return pool
}

// TestLoweredMatchesReference runs every UDF and combiner of the three
// workload packages (all modes), and every TAC program in this package's
// tests, through both implementations.
func TestLoweredMatchesReference(t *testing.T) {
	type workload struct {
		flow *dataflow.Flow
		data map[string]record.DataSet
	}
	var wls []workload
	for _, mode := range []tpch.Mode{tpch.ModeSCA, tpch.ModeManual} {
		g := &tpch.GenParams{SF: 0.01, Seed: 7}
		for _, build := range []func(tpch.Mode, *tpch.GenParams) (*tpch.Query, error){tpch.BuildQ7, tpch.BuildQ15} {
			q, err := build(mode, g)
			if err != nil {
				t.Fatal(err)
			}
			wls = append(wls, workload{q.Flow, g.Generate(q.Flow)})
		}
	}
	for _, mode := range []clickstream.Mode{clickstream.ModeSCA, clickstream.ModeManual} {
		g := &clickstream.GenParams{Sessions: 20, ClicksPerSess: 4, BuyRate: 0.3, LoginRate: 0.5, Users: 6, Seed: 7}
		c, err := clickstream.Build(mode, g)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, workload{c.Flow, g.Generate(c.Flow)})
	}
	for _, mode := range []textmine.Mode{textmine.ModeSCA, textmine.ModeManual} {
		g := textmine.DefaultGen()
		g.Docs, g.WordsLo, g.WordsHi = 16, 8, 40
		tm, err := textmine.Build(mode, g)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, workload{tm.Flow, g.Generate(tm.Flow)})
	}

	g := gen{rand.New(rand.NewSource(1))}
	funcs := 0
	for _, wl := range wls {
		ins := g.inputs(flowPool(g, wl.flow, wl.data), 48)
		for _, op := range wl.flow.Operators() {
			for _, f := range []*tac.Func{op.UDF, op.Combiner} {
				if f != nil {
					compareFunc(t, f, ins, tac.DefaultStepLimit)
					funcs++
				}
			}
		}
	}

	var pool []record.Record
	for k := 0; k < 48; k++ {
		pool = append(pool, g.record(6))
	}
	// The paper's Section 3 inputs, and zeros, which skip the conditional
	// definitions of the tests' undefined-variable programs.
	pool = append(pool, record.Record{record.Int(2), record.Int(-3)}, record.Record{record.Int(-2), record.Int(-3)},
		record.Record{record.Int(0)}, record.Record{record.Int(0), record.Int(0), record.Int(0)})
	ins := g.inputs(pool, 48)
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		for _, src := range stringLits(t, file) {
			prog, err := tac.Parse(src)
			if err != nil {
				continue
			}
			for _, name := range prog.Order {
				compareFunc(t, prog.Funcs[name], ins, tac.DefaultStepLimit)
				funcs++
			}
		}
	}
	t.Logf("%d functions compared at %d step limits", funcs, len(limits(0)))
}

// stringLits returns the string literals of a Go source file.
func stringLits(t testing.TB, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lits []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				lits = append(lits, s)
			}
		}
		return true
	})
	return lits
}

// FuzzRunnerDifferential compiles PactScript with frontend.Compile and
// compares every function it yields on random inputs drawn from seed. The
// seeds are the string literals of the frontend's FuzzCompile; its corpus
// lives in testdata/fuzz. Step limits are 1…64 and 10,000 rather than the
// default: a fuzzed infinite loop would spend ten million steps per call.
// Programs with a static field index outside [0, 64] are skipped: a
// negative setfield index panics in both implementations (the job path's
// SCA rejects such programs first) and a huge one allocates the width.
func FuzzRunnerDifferential(f *testing.F) {
	for i, s := range stringLits(f, filepath.Join("..", "frontend", "fuzz_test.go")) {
		f.Add(s, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		prog, err := frontend.Compile(src)
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			for _, in := range fn.Body {
				if !in.FieldVar && (in.Field < 0 || in.Field > 64) {
					return
				}
			}
		}
		g := gen{rand.New(rand.NewSource(seed))}
		var pool []record.Record
		for k := 0; k < 12; k++ {
			pool = append(pool, g.record(8))
		}
		ins := g.inputs(pool, 8)
		for _, name := range prog.Order {
			compareFunc(t, prog.Funcs[name], ins, 10_000)
		}
	})
}

// q7Script returns the end-to-end benchmark's Q7 PactScript: the template
// in bench/workloads.go, filled in as buildQ7 fills it, with the shipdate
// bound its documents vary set to Q7's.
func q7Script(tb testing.TB) string {
	q, err := tpch.BuildQ7(tpch.ModeManual, &tpch.GenParams{SF: 0.01, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	f := q.Flow
	for _, s := range stringLits(tb, filepath.Join("..", "..", "bench", "workloads.go")) {
		if strings.Contains(s, "map filterShipdate(") {
			return fmt.Sprintf(s, f.Attr("l_shipdate"), tpch.Q7DateLo, strconv.Itoa(tpch.Q7DateHi),
				f.Attr("n1_name"), f.Attr("n2_name"), tpch.NationX, tpch.NationY,
				f.Attr("l_revenue"), f.Attr("o_year"), f.Attr("volume"))
		}
	}
	tb.Fatal("no Q7 script in bench/workloads.go")
	return ""
}

// BenchmarkLowerQ7Script measures what Parse adds per cold Q7 document:
// lowering the script's five functions.
func BenchmarkLowerQ7Script(b *testing.B) {
	prog := frontend.MustCompile(q7Script(b))
	b.ReportAllocs()
	for b.Loop() {
		for _, f := range prog.Funcs {
			tac.Lower(f)
		}
	}
}
