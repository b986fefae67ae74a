package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
	"unsafe"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/record"
)

// This file is the one path from raw document bytes to a runnable Spec
// (DESIGN.md, "Ingest"). A cursor outlines the document — where the data
// member's sources begin and end — without interpreting a value; the small
// envelope (everything but data) goes through encoding/json as it always
// did; and each source is digested and, unless the source cache already
// holds those bytes decoded, parsed straight into the flow's global record
// layout with no []any, json.Number or remap copy in between.

// ParseScriptJob decodes a JSON job document, compiles its PactScript,
// builds and analyzes the flow, converts the inline data, and returns a
// Spec ready for Submit. Unknown JSON fields and anything but whitespace
// after the document are rejected, so typos fail loudly rather than
// silently dropping a hint.
func ParseScriptJob(raw []byte) (Spec, error) { return ingest(nil, raw) }

// ParseScriptJob is the package-level ParseScriptJob backed by the
// scheduler's plan cache (absent when Config.PlanCacheSize < 0): a
// byte-identical document is replayed from the caches without being
// parsed, a known script and flow skip compilation and static analysis,
// and a source whose bytes were seen before is not decoded again. The
// returned Spec carries the flow digest in PlanKey, so Submit and execute
// can reuse the cached optimized plan and its cost estimate too.
func (s *Scheduler) ParseScriptJob(raw []byte) (Spec, error) { return ingest(s.planCache, raw) }

// flowCacheHit opens the compile span's detail when the compiled flow was
// reused (at most data decoding ran).
const flowCacheHit = "flow-cache hit "

// compileDetail is the rest of what ingest reports in the compile span's
// detail: whether the document was replayed (doc is hit or miss), how many
// of its inline sources the source cache served, and how many raw row bytes
// had to be parsed.
func compileDetail(doc string, sourceHits, sources, decodedBytes int) string {
	return fmt.Sprintf("doc=%s sources=%d/%d decoded_bytes=%d", doc, sourceHits, sources, decodedBytes)
}

func ingest(c *PlanCache, raw []byte) (Spec, error) {
	start := time.Now()
	spec, err := parseDocument(c, raw)
	if err != nil {
		return Spec{}, err
	}
	spec.Compile.Name, spec.Compile.Kind = "compile", obs.KindPhase
	spec.Compile.Start, spec.Compile.End = start, time.Now()
	return spec, nil
}

func parseDocument(c *PlanCache, raw []byte) (Spec, error) {
	// memo is the document memo's entry for raw, if it has one: its replay
	// fell short, and the parse below renews it.
	var memo *docEntry
	var fp uint64
	if c != nil {
		fp = c.fingerprint(raw)
		if memo = c.lookupDoc(fp, raw); memo != nil {
			if spec, ok := c.replay(memo); ok {
				return spec, nil
			}
		}
	}
	envelope, ranges, err := outline(raw)
	if err != nil {
		return Spec{}, err
	}
	var doc ScriptJob
	dec := json.NewDecoder(bytes.NewReader(envelope))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Spec{}, badDocument(err)
	}

	var keys []namedSource
	sources, hits, decoded := len(ranges), 0, 0
	given := make(map[string]func(sourceLayout) (*source, error), len(ranges))
	for name, rg := range ranges {
		given[name] = func(lay sourceLayout) (*source, error) {
			var key sourceKey
			if c != nil {
				key = lay.digest(raw[rg[0]:rg[1]])
				keys = append(keys, namedSource{name, key})
				if src := c.source(key); src != nil {
					hits++
					return src, nil
				}
			}
			decoded += rg[1] - rg[0]
			src, err := decodeSource(&reader{raw: raw[:rg[1]], pos: rg[0]}, lay)
			if err == nil && c != nil {
				src = c.storeSource(key, src)
			}
			return src, err
		}
	}
	spec, err := assemble(c, &doc, given)
	if err != nil {
		return Spec{}, err
	}
	spec.Compile.Detail += compileDetail("miss", hits, sources, decoded)
	if c != nil && memo == nil && len(raw) <= maxDocCacheBytes && c.admitDoc(fp) {
		// The caller may reuse its buffer once this returns: the memo
		// keeps a copy of its own.
		memo = &docEntry{doc: bytes.Clone(raw), fp: fp}
	}
	if memo != nil {
		c.storeDoc(memo, spec, keys)
	}
	return spec, nil
}

// assemble builds the Spec of a decoded document envelope; given holds, by
// source name, how to load the inline data the document carries into the
// layout assemble works out for that source.
func assemble(c *PlanCache, doc *ScriptJob, given map[string]func(sourceLayout) (*source, error)) (Spec, error) {
	if strings.TrimSpace(doc.Script) == "" {
		return Spec{}, errors.New("jobs: job document has no script")
	}
	spec := Spec{
		Name:         doc.Name,
		Tenant:       doc.Tenant,
		Sources:      make(map[string]record.DataSet, len(given)),
		DOP:          doc.DOP,
		MemoryBudget: doc.MemoryBudgetBytes,
		Deadline:     time.Duration(doc.DeadlineMillis) * time.Millisecond,
	}
	// Where a source's fields land in the global record follows from the
	// FlowDef alone, so rows are placed before — or without — building a
	// flow.
	layout, err := doc.Flow.Layout()
	if err != nil {
		return Spec{}, fmt.Errorf("jobs: %w", err)
	}
	global := make(map[string]int, len(layout))
	for i, a := range layout {
		global[a] = i
	}
	hints := make(map[string]dataflow.Hints, len(doc.Flow.Sources))
	for _, sd := range doc.Flow.Sources {
		lay := sourceLayout{def: sd, idx: make([]int, len(sd.Attrs))}
		for i, a := range sd.Attrs {
			lay.idx[i] = global[a]
			lay.width = max(lay.width, global[a]+1)
		}
		src := &source{}
		if load, ok := given[sd.Name]; ok {
			delete(given, sd.Name)
			var err error
			if src, err = load(lay); err != nil {
				return Spec{}, err
			}
			spec.Sources[sd.Name] = src.rows
		}
		hints[sd.Name] = resolveSourceHints(sd, len(src.rows), src.wireSize)
	}
	for name := range given {
		return Spec{}, fmt.Errorf("jobs: data names no declared source %q", name)
	}

	compile := func() (*dataflow.Flow, error) {
		prog, err := frontend.Compile(doc.Script)
		if err != nil {
			return nil, fmt.Errorf("jobs: compile script: %w", err)
		}
		return buildFlow(&doc.Flow, prog, hints)
	}
	if c == nil {
		spec.Flow, err = compile()
		return spec, err
	}
	spec.PlanKey = scriptJobHash(doc, hints)
	if flow, ok := c.flow(spec.PlanKey); ok {
		spec.Flow, spec.Compile.Detail = flow, flowCacheHit
		return spec, nil
	}
	if spec.Flow, err = compile(); err != nil {
		return Spec{}, err
	}
	// Racing compilations of the same document converge on one shared
	// instance.
	spec.Flow = c.storeFlow(spec.PlanKey, spec.Flow)
	return spec, nil
}

func badDocument(err error) error { return fmt.Errorf("jobs: bad job document: %w", err) }

// outline finds the data member's sources in a document — ranges[name] is
// where the source's array of rows begins and ends in raw — and returns the
// document's envelope: the same bytes with the data value replaced by null,
// for encoding/json to decode and validate. Everything outline steps over
// is validated by whoever decodes it: the envelope by encoding/json, a
// source by decodeSource.
func outline(raw []byte) (envelope []byte, ranges map[string][2]int, err error) {
	r := &reader{raw: raw}
	dataFrom, dataTo := -1, -1
	err = r.sequence('{', func(int) error {
		key, err := r.key()
		if err != nil {
			return err
		}
		if !strings.EqualFold(string(key), "data") {
			return r.skip()
		}
		if dataFrom >= 0 {
			return badDocument(fmt.Errorf("duplicate key %q", key))
		}
		dataFrom, ranges = r.pos, map[string][2]int{}
		if !r.literal("null") {
			err = r.sequence('{', func(int) error {
				name, err := r.key()
				if err != nil {
					return err
				}
				if _, dup := ranges[string(name)]; dup {
					return fmt.Errorf("jobs: source %q is given twice", name)
				}
				from := r.pos
				err = r.skip()
				ranges[string(name)] = [2]int{from, r.pos}
				return err
			})
		}
		dataTo = r.pos
		return err
	})
	switch end := r.pos; {
	case err != nil:
	case r.peek() != 0:
		err = r.unexpected("end of input")
	case dataFrom < 0:
		envelope = raw[:end]
	default:
		envelope = append(append(append(envelope, raw[:dataFrom]...), "null"...), raw[dataTo:end]...)
	}
	return envelope, ranges, err
}

// sourceLayout is where one declared source's fields sit in the flow's
// global record: field i of a submitted row lands at index idx[i] of a
// width-wide record, null elsewhere.
type sourceLayout struct {
	def   SourceDef
	idx   []int
	width int
}

func (lay sourceLayout) widthError(row, fields int) error {
	return fmt.Errorf("jobs: source %q row %d has %d fields, want %d (%v)",
		lay.def.Name, row, fields, len(lay.idx), lay.def.Attrs)
}

// digest addresses a decoded source by everything its decoded form depends
// on: the attributes, where each lands in the global record, and the row
// bytes.
func (lay sourceLayout) digest(body []byte) sourceKey {
	h := sha256.New()
	fmt.Fprintf(h, "%q%v", lay.def.Attrs, lay.idx)
	h.Write(body)
	return sourceKey(h.Sum(nil))
}

// source is one decoded inline source: rows in the flow's global layout,
// carved from shared slabs. Read-only once built — the source cache hands
// the same instance to concurrent jobs.
type source struct {
	rows record.DataSet
	// wireSize is the rows' wire size in the submitted (unpadded) layout,
	// which the AvgWidthBytes hint is resolved from.
	wireSize int
	// resident is what the instance pins in memory: slabs, row headers and
	// string bytes.
	resident int64
}

// Slab chunks grow with the rows decoded so far, from minChunkRows rows to
// maxChunkValues values: a six-row source does not pay for a megabyte, and
// a large one is never copied while it grows.
const (
	minChunkRows   = 64
	maxChunkValues = 1 << 15
)

// decodeSource parses one source's array of rows into lay's global layout.
// Value typing is decodeValue's: a number without fraction or exponent that
// fits int64 is an int, any other number a float.
func decodeSource(r *reader, lay sourceLayout) (*source, error) {
	src := &source{rows: record.DataSet{}}
	var free []record.Value // unused tail of the current slab chunk
	var rec record.Record
	var fields, size int
	decodeField := func(f int) error {
		v, err := r.scalar()
		if bad, ok := err.(valueError); ok {
			return fmt.Errorf("jobs: source %q: row %d field %d: %s", lay.def.Name, len(src.rows), f, bad)
		} else if err != nil {
			return err
		}
		if f < len(lay.idx) {
			rec[lay.idx[f]] = v
		}
		if v.Kind() == record.KindString {
			src.resident += int64(len(v.AsString()))
		}
		fields, size = f+1, size+v.EncodedSize()
		return nil
	}
	decodeRow := func(row int) error {
		if len(free) < lay.width {
			free = make([]record.Value, min(max(row, minChunkRows)*lay.width, max(maxChunkValues, lay.width)))
			src.resident += int64(len(free)) * int64(unsafe.Sizeof(record.Value{}))
		}
		rec, fields, size = free[:lay.width:lay.width], 0, 4
		if err := r.sequence('[', decodeField); err != nil {
			return err
		}
		if fields != len(lay.idx) {
			return lay.widthError(row, fields)
		}
		free = free[lay.width:]
		src.rows = append(src.rows, rec)
		src.wireSize += size
		return nil
	}
	if !r.literal("null") {
		if err := r.sequence('[', decodeRow); err != nil {
			return nil, err
		}
	}
	if r.pos < len(r.raw) {
		return nil, r.unexpected("the end of the source")
	}
	src.resident += int64(cap(src.rows)) * int64(unsafe.Sizeof(record.Record{}))
	return src, nil
}

// reader is a cursor over JSON text.
type reader struct {
	raw []byte
	pos int
}

// valueError marks a well-formed JSON value that is not a row scalar.
type valueError string

func (e valueError) Error() string { return string(e) }

// peek skips whitespace and returns the byte at the cursor, 0 at the end of
// the input.
func (r *reader) peek() byte {
	for ; r.pos < len(r.raw); r.pos++ {
		if c := r.raw[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// unexpected reports what is at the cursor as a syntax error.
func (r *reader) unexpected(want string) error {
	if r.pos >= len(r.raw) {
		return badDocument(io.ErrUnexpectedEOF)
	}
	return badDocument(fmt.Errorf("invalid character %q at offset %d, want %s", r.raw[r.pos], r.pos, want))
}

// literal consumes lit if it is next.
func (r *reader) literal(lit string) bool {
	if r.peek(); !bytes.HasPrefix(r.raw[r.pos:], []byte(lit)) {
		return false
	}
	r.pos += len(lit)
	return true
}

// sequence walks an array (open '[') or an object (open '{'), calling elem
// with each element's index and the cursor on the element — for an object,
// on the member's key — which elem must consume.
func (r *reader) sequence(open byte, elem func(i int) error) error {
	end := open + 2 // ']' follows '[' and '}' follows '{' at this distance
	if r.peek() != open {
		return r.unexpected(fmt.Sprintf("%q", open))
	}
	if r.pos++; r.peek() == end {
		r.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch r.peek() {
		case ',':
			r.pos++
		case end:
			r.pos++
			return nil
		default:
			return r.unexpected(fmt.Sprintf("',' or %q", end))
		}
	}
}

// key reads an object member's key and leaves the cursor on its value.
func (r *reader) key() ([]byte, error) {
	if r.peek() != '"' {
		return nil, r.unexpected("a key")
	}
	key, err := r.str()
	if err != nil {
		return nil, err
	}
	if r.peek() != ':' {
		return nil, r.unexpected("':'")
	}
	r.pos++
	r.peek()
	return key, nil
}

// skip moves the cursor past one value without interpreting it: only
// nesting and string boundaries are tracked.
func (r *reader) skip() error {
	depth, quoted := 0, false
	for ; r.pos < len(r.raw); r.pos++ {
		switch c := r.raw[r.pos]; {
		case quoted && c == '\\':
			r.pos++
		case c == '"':
			if quoted = !quoted; !quoted && depth == 0 {
				r.pos++
				return nil
			}
		case quoted:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth <= 0 {
				r.pos += depth + 1 // the value's own end is consumed, an enclosing sequence's is not
				return nil
			}
		case depth == 0 && (c == ',' || c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return nil
		}
	}
	return r.unexpected("")
}

// str reads the string literal at the cursor: a sub-slice of the document
// when the literal is plain valid UTF-8, else what encoding/json makes of
// its escapes and invalid bytes.
func (r *reader) str() ([]byte, error) {
	start := r.pos
	if err := r.skip(); err != nil {
		return nil, err
	}
	body := r.raw[start+1 : r.pos-1]
	plain := true
	for _, c := range body {
		plain = plain && c >= ' ' && c != '\\'
	}
	if plain && utf8.Valid(body) {
		return body, nil
	}
	var s string
	if err := json.Unmarshal(r.raw[start:r.pos], &s); err != nil {
		return nil, badDocument(err)
	}
	return []byte(s), nil
}

// scalar reads one row field.
func (r *reader) scalar() (record.Value, error) {
	switch c := r.peek(); {
	case c == '"':
		b, err := r.str()
		return record.String(string(b)), err
	case c == '-' || (c >= '0' && c <= '9'):
		return r.number()
	case r.literal("null"):
		return record.Null, nil
	case r.literal("true"):
		return record.Bool(true), nil
	case r.literal("false"):
		return record.Bool(false), nil
	case c == '[':
		return record.Null, valueError("unsupported value type []interface {}")
	case c == '{':
		return record.Null, valueError("unsupported value type map[string]interface {}")
	}
	return record.Null, r.unexpected("a value")
}

// number reads a JSON number literal, -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?.
func (r *reader) number() (record.Value, error) {
	start := r.pos
	// eat consumes the next byte if it is a or b; digits consumes a run of
	// digits and reports whether there were any.
	eat := func(a, b byte) bool {
		if r.pos < len(r.raw) && (r.raw[r.pos] == a || r.raw[r.pos] == b) {
			r.pos++
			return true
		}
		return false
	}
	digits := func() bool {
		from := r.pos
		for r.pos < len(r.raw) && r.raw[r.pos]-'0' <= 9 {
			r.pos++
		}
		return r.pos > from
	}
	eat('-', '-')
	integer, ok := true, eat('0', '0') || digits()
	if ok && eat('.', '.') {
		integer, ok = false, digits()
	}
	if ok && eat('e', 'E') {
		eat('+', '-')
		integer, ok = false, digits()
	}
	if !ok {
		return record.Null, r.unexpected("a digit")
	}
	// Converted at each use so the literal never escapes to the heap.
	lit := r.raw[start:r.pos]
	if integer {
		if i, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return record.Int(i), nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return record.Null, valueError(fmt.Sprintf("bad number %q", lit))
	}
	return record.Float(f), nil
}
