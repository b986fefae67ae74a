package tac_test

import (
	"cmp"
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
	"unsafe"

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
// the step-limit error fires at the same instruction. The Runner is handed
// a random subset of each Binary call's parameters (tac.Owned), as fresh
// copies with Null room: what it builds in their storage must still be what
// the reference builds.

// caller is the call surface a Runner and the reference share.
type caller interface {
	Map(record.Record, func(record.Record) error) error
	Binary(record.Record, record.Record, tac.Owned, func(record.Record) error) error
	Reduce([]record.Record, func(record.Record) error) error
	CoGroup([]record.Record, []record.Record, func(record.Record) error) error
}

// refCaller is the reference as a caller: it copies every record it
// reads, so it needs no handover.
type refCaller struct{ *tac.RefRunner }

func (c refCaller) Binary(l, r record.Record, _ tac.Owned, emit func(record.Record) error) error {
	return c.RefRunner.Binary(l, r, emit)
}

// input is one call's arguments: the records of a Map or Binary call, the
// groups of a Reduce or CoGroup call, and the Binary parameters handed over.
type input struct {
	recs   [2]record.Record
	groups [2][]record.Record
	own    tac.Owned
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
		err = c.Binary(in.recs[0], in.recs[1], in.own, emit)
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

// span is the storage a record can reach, [0, cap), as addresses.
func span(r record.Record) (lo, hi uintptr) {
	if cap(r) == 0 {
		return 0, 0
	}
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(r)))
	return lo, lo + uintptr(cap(r))*unsafe.Sizeof(record.Value{})
}

// shares reports whether two records' storage overlaps.
func shares(a, b record.Record) bool {
	alo, ahi := span(a)
	blo, bhi := span(b)
	return alo < bhi && blo < ahi
}

// nullRoom reports whether every Value past r's length, up to its capacity,
// is Null: the room a Runner leaves in a record is there to be widened into.
func nullRoom(r record.Record) bool {
	for _, v := range r[len(r):cap(r)] {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

// handOver returns a fresh copy of r with extra Values of Null room.
func handOver(r record.Record, extra int) record.Record {
	c := make(record.Record, len(r), len(r)+extra)
	copy(c, r)
	return c
}

// pair is one function under both implementations at one step limit, each
// runner reused across calls the way the engine reuses them. It keeps every
// record the Runner emitted, with its snapshot, for recheck.
type pair struct {
	f         *tac.Func
	limit     int
	low, ref  caller
	rng       *rand.Rand // draws the parameters each Binary call hands over
	out, snap []record.Record
}

func newPair(t testing.TB, f *tac.Func, limit int) *pair {
	low, err := tac.NewRunnerLimit(f, f.Kind, limit)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	ref, err := tac.NewRefRunner(f, f.Kind, limit)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return &pair{f: f, limit: limit, low: low, ref: refCaller{ref}, rng: rand.New(rand.NewSource(int64(limit)))}
}

// check runs in through both, reports the first difference, and returns
// whether the call ran out of steps. A Binary call hands the Runner a random
// subset of its parameters, each a fresh copy with 0, 1, 4 or 16 Values of
// room; the reference and the input checks see the originals.
func (p *pair) check(t testing.TB, in input, failAt int) bool {
	t.Helper()
	before := in.clone()
	low := in
	if p.f.Kind == tac.KindBinary {
		low.own = tac.Owned(p.rng.Intn(4))
		for i, bit := range []tac.Owned{tac.OwnLeft, tac.OwnRight} {
			if low.own&bit != 0 {
				low.recs[i] = handOver(in.recs[i], []int{0, 1, 4, 16}[p.rng.Intn(4)])
			}
		}
	}
	got := invoke(p.low, p.f.Kind, low, failAt)
	if !sameInput(in, before) {
		t.Fatalf("%s (limit %d): the Runner wrote its input\n%s", p.f.Name, p.limit, p.f)
	}
	want := invoke(p.ref, p.f.Kind, in, failAt)
	where := func() string {
		return fmt.Sprintf("%s (limit %d, sink fails at %d, handed %b) on %v / %v\n%s", p.f.Name, p.limit, failAt, low.own, in.recs, in.groups, p.f)
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
		if !nullRoom(got.out[i]) {
			t.Fatalf("%s: record %d has room that is not Null: %v", where(), i, got.out[i][:cap(got.out[i])])
		}
		// Only a handed-over parameter may become an output; a shared one
		// is in in.recs, a handed-over one only in low.recs.
		for _, r := range append(in.recs[:], append(in.groups[0], in.groups[1]...)...) {
			if shares(got.out[i], r) {
				t.Fatalf("%s: record %d shares storage with a shared input", where(), i)
			}
		}
	}
	p.out, p.snap = append(p.out, got.out...), append(p.snap, got.snap...)
	return strings.Contains(got.err, "exceeded step limit")
}

// recheck runs after the pair's last call: every record the Runner emitted
// in any call still holds what it was emitted with, and no two share
// storage — the records of later calls are carved from the same chunks.
func (p *pair) recheck(t testing.TB) {
	t.Helper()
	for i, r := range p.out {
		if !sameRecord(r, p.snap[i]) || !nullRoom(r) {
			t.Fatalf("%s (limit %d): emitted record %d changed by a later call: %v, emitted as %v\n%s", p.f.Name, p.limit, i, r[:cap(r)], p.snap[i], p.f)
		}
	}
	// In order of their first address, a record overlaps an earlier one
	// exactly when it starts below the furthest end seen so far.
	order := make([]int, len(p.out))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		alo, _ := span(p.out[a])
		blo, _ := span(p.out[b])
		return cmp.Compare(alo, blo)
	})
	far, end := -1, uintptr(0) // the record reaching furthest so far, and its end
	for _, i := range order {
		lo, hi := span(p.out[i])
		if lo < end {
			t.Fatalf("%s (limit %d): emitted records %d and %d share storage\n%s", p.f.Name, p.limit, far, i, p.f)
		}
		if hi > end {
			far, end = i, hi
		}
	}
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
		for _, in := range ins {
			if p.check(t, in, 0) && i == 0 {
				break
			}
			if i == 0 {
				p.check(t, in, 1)
			}
		}
		p.recheck(t)
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
	group := func() []record.Record {
		var grp []record.Record
		for k := g.rng.Intn(4); k > 0; k-- {
			grp = append(grp, pick())
		}
		return grp
	}
	ins := make([]input, n)
	for i := range ins {
		ins[i] = input{recs: [2]record.Record{pick(), pick()}, groups: [2][]record.Record{group(), group()}}
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

// handoverScript holds the Match shapes that decide whether a handed-over
// parameter's storage may hold a result: a parameter read after the concat,
// one emitted before it, a concat in a loop, a copy and a concat each
// redefining its operand, and a concat of a parameter with itself.
const handoverScript = `
match concatJoin(l, r) {
	o := concat(l, r)
	emit o
}
match readAfter(l, r) {
	o := concat(l, r)
	a := l[0]
	o[0] = a
	emit o
}
match emitFirst(l, r) {
	emit l
	o := concat(l, r)
	emit o
}
match inLoop(l, r) {
	i := 0
	while i < 3 {
		o := concat(l, r)
		o[1] = i
		emit o
		i := i + 1
	}
}
match redefine(l, r) {
	o := copy(l)
	o := concat(o, r)
	emit o
}
match self(l, r) {
	o := concat(l, l)
	emit o
	emit r
}`

// TestRunnerHandover compares handoverScript's functions with the reference
// on random inputs, each call handed a random subset of its parameters, and
// pins which handed-over parameter each output is built in when both are
// handed over: l = <1, Null> with the given capacity, r = <Null, "x", 3, 4>
// without room.
func TestRunnerHandover(t *testing.T) {
	prog := frontend.MustCompile(handoverScript)
	g := gen{rand.New(rand.NewSource(3))}
	var pool []record.Record
	for k := 0; k < 32; k++ {
		pool = append(pool, g.record(6))
	}
	ins := g.inputs(pool, 64)
	for _, name := range prog.Order {
		compareFunc(t, prog.Funcs[name], ins, tac.DefaultStepLimit)
	}

	for _, c := range []struct {
		fn   string
		lcap int
		in   []string // per output: the parameter whose storage holds it, or ""
	}{
		{"concatJoin", 8, []string{"l"}},
		{"concatJoin", 2, []string{"r"}}, // l has no room; r is the longer
		{"readAfter", 8, []string{"r"}},  // l is read again; r is not
		{"emitFirst", 8, []string{"l", "r"}},
		{"inLoop", 8, []string{"", "", ""}},
		{"redefine", 8, []string{"l"}},
		{"self", 8, []string{"", "r"}},
	} {
		f, _ := prog.Lookup(c.fn)
		l := append(make(record.Record, 0, c.lcap), record.Int(1), record.Null)
		r := record.Record{record.Null, record.String("x"), record.Int(3), record.Int(4)}
		ref, err := tac.NewRefRunner(f, f.Kind, tac.DefaultStepLimit)
		if err != nil {
			t.Fatal(err)
		}
		want := invoke(refCaller{ref}, f.Kind, input{recs: [2]record.Record{l.Clone(), r.Clone()}}, 0)
		run, err := tac.NewRunner(f, f.Kind)
		if err != nil {
			t.Fatal(err)
		}
		got := invoke(run, f.Kind, input{recs: [2]record.Record{l, r}, own: tac.OwnLeft | tac.OwnRight}, 0)
		if got.err != "" || len(got.out) != len(want.out) || len(got.out) != len(c.in) {
			t.Fatalf("%s: emitted %d records (err %q), reference %d, want %d", c.fn, len(got.out), got.err, len(want.out), len(c.in))
		}
		for i, out := range got.out {
			if !sameRecord(out, want.out[i]) || !nullRoom(out) {
				t.Errorf("%s (l cap %d): record %d = %v, reference %v", c.fn, c.lcap, i, out[:cap(out)], want.out[i])
			}
			in := ""
			if shares(out, l) {
				in = "l"
			} else if shares(out, r) {
				in = "r"
			}
			if in != c.in[i] {
				t.Errorf("%s (l cap %d): record %d is built in %q, want %q", c.fn, c.lcap, i, in, c.in[i])
			}
		}
	}
}

// FuzzRunnerDifferential compiles PactScript with frontend.Compile, checks
// that the program's rendering (Program.String) reads back as the same
// instructions, and compares every function it yields on random inputs
// drawn from seed, each Binary call handed a random subset of its parameters
// (pair.check). The seeds are the string literals of the frontend's
// FuzzCompile, the sources of TestCompileMatchesParent and handoverScript; its corpus
// lives in testdata/fuzz. Step limits are 1…64 and 10,000 rather than the
// default: a fuzzed infinite loop would spend ten million steps per call.
// Programs with a static field index outside [0, 64] are skipped: a
// negative setfield index panics in both implementations (the job path's
// SCA rejects such programs first) and a huge one allocates the width.
func FuzzRunnerDifferential(f *testing.F) {
	seeds := stringLits(f, filepath.Join("..", "frontend", "fuzz_test.go"))
	for _, g := range goldenPrograms(f) {
		seeds = append(seeds, g.Src)
	}
	seeds = append(seeds, handoverScript)
	for i, s := range seeds {
		f.Add(s, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		prog, err := frontend.Compile(src)
		if err != nil {
			return
		}
		if d := renderDiff(prog); d != "" {
			t.Fatal(d)
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

// BenchmarkLowerQ7Script measures what NewProgram adds to code generation
// per cold Q7 document: validating and lowering the script's five functions.
func BenchmarkLowerQ7Script(b *testing.B) {
	prog := frontend.MustCompile(q7Script(b))
	b.ReportAllocs()
	for b.Loop() {
		for _, f := range prog.Funcs {
			tac.Lower(f)
		}
	}
}
