// Package clickstream implements the weblog clickstream-processing task of
// the paper's evaluation (Section 7.2, Figure 4): extract click sessions
// that lead to buy actions and augment them with detailed user information.
//
// The task chains two non-relational Reduce operators (filter buy sessions,
// condense sessions) with two Match operators (filter logged-in sessions,
// append user info). Its plan space is the paper's Table 1 showcase for the
// manual-vs-SCA gap: the user-info UDF selects a profile field through a
// dynamically computed index, which static analysis must conservatively
// treat as "reads everything", suppressing one valid reordering that a
// manual annotation permits.
package clickstream

import (
	"fmt"
	"math/rand"

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

// Actions encoded in the click records.
const (
	ActionView = 0
	ActionBuy  = 1
)

// GenParams scale the synthetic clickstream.
type GenParams struct {
	Sessions      int     // number of click sessions
	ClicksPerSess int     // average clicks per session
	BuyRate       float64 // fraction of sessions containing a buy
	LoginRate     float64 // fraction of sessions with a logged-in user
	Users         int     // size of the user-info relation
	Seed          int64
}

// DefaultGen returns laptop-scale defaults mirroring the paper's ratios
// (clicks ≫ logins > user info).
func DefaultGen() *GenParams {
	return &GenParams{
		Sessions:      3000,
		ClicksPerSess: 12,
		BuyRate:       0.10,
		LoginRate:     0.30,
		Users:         400,
		Seed:          42,
	}
}

// Clicks returns the expected click cardinality.
func (g *GenParams) Clicks() int { return g.Sessions * g.ClicksPerSess }

// Logins returns the expected login cardinality.
func (g *GenParams) Logins() int {
	n := int(float64(g.Sessions) * g.LoginRate)
	if n < 1 {
		n = 1
	}
	return n
}

// Task bundles the built flow.
type Task struct {
	Flow *dataflow.Flow
}

// Build constructs the data flow of Figure 4(a):
//
//	click → Reduce(filter buy sessions) → Reduce(condense sessions)
//	      → Match(filter logged-in sessions, login) → Match(append user
//	      info, user) → sink
func Build(mode Mode, g *GenParams) (*Task, error) {
	f := dataflow.NewFlow()

	click := f.Source("click", []string{"c_ip", "c_ts", "c_session", "c_action"},
		dataflow.Hints{Records: float64(g.Clicks()), AvgWidthBytes: 40})
	login := f.Source("login", []string{"l_session", "l_user"},
		dataflow.Hints{Records: float64(g.Logins()), AvgWidthBytes: 22})
	user := f.Source("user", []string{"u_key", "u_name", "u_age", "u_pref"},
		dataflow.Hints{Records: float64(g.Users), AvgWidthBytes: 48})

	f.DeclareAttr("cs_count")
	f.DeclareAttr("cs_duration")
	f.DeclareAttr("cs_hasbuy")
	f.DeclareAttr("ui_pref_value")

	prog, err := program(f)
	if err != nil {
		return nil, err
	}
	udf := func(name string) *tac.Func {
		fn, ok := prog.Lookup(name)
		if !ok {
			panic("clickstream: missing UDF " + name)
		}
		return fn
	}

	r1 := f.Reduce("filter_buy_sessions", udf("filterBuySessions"), []string{"c_session"}, click,
		dataflow.Hints{Selectivity: float64(g.ClicksPerSess) * g.BuyRate, KeyCardinality: float64(g.Sessions)})

	r2 := f.Reduce("condense_sessions", udf("condenseSessions"), []string{"c_session"}, r1,
		dataflow.Hints{Selectivity: 1, KeyCardinality: float64(g.Sessions) * g.BuyRate})

	// The join filters: only LoginRate of the click-side records find a
	// login partner (the paper's "selecting only sessions with logged in
	// users").
	m1 := f.Match("filter_loggedin", udf("filterLoggedIn"), []string{"c_session"}, []string{"l_session"},
		r2, login, dataflow.Hints{KeyCardinality: float64(g.Sessions), Selectivity: g.LoginRate})
	m1.FKSide = dataflow.FKLeft // click sessions reference at most one login

	m2 := f.Match("append_userinfo", udf("appendUserInfo"), []string{"l_user"}, []string{"u_key"},
		m1, user, dataflow.Hints{KeyCardinality: float64(g.Users)})
	m2.FKSide = dataflow.FKLeft // each logged-in session references one user

	f.SetSink("out", m2)

	if mode == ModeSCA {
		if err := f.DeriveEffects(false); err != nil {
			return nil, err
		}
	} else {
		r1.SetEffect(manualFilterBuy(f))
		r2.SetEffect(manualCondense(f))
		m1.SetEffect(manualConcatJoin())
		m2.SetEffect(manualAppendUser(f))
	}
	return &Task{Flow: f}, nil
}

// program compiles the four UDFs from PactScript against the flow's global
// indices.
func program(f *dataflow.Flow) (*tac.Program, error) {
	src := fmt.Sprintf(`
// Filter Buy Sessions (Figure 4): called with all click records of a
// session; forwards all of them iff at least one click is a buy action.
reduce filterBuySessions(g) {
	if max(g, %[3]d) >= %[9]d {
		n := g.size()
		i := 0
		while i < n {
			r := g.at(i)
			emit r
			i := i + 1
		}
	}
}

// Condense Sessions: merges all clicks of a session into a single record
// with click count, duration, and a buy flag; the per-click timestamp and
// action fields are projected (they vary within the group).
reduce condenseSessions(g) {
	first := g.at(0)
	out := copy(first)
	out[%[4]d] = count(g, %[2]d)
	out[%[5]d] = max(g, %[1]d) - min(g, %[1]d)
	out[%[6]d] = max(g, %[3]d)
	out[%[1]d] = null
	out[%[3]d] = null
	emit out
}

// Filter Logged-In Sessions: equi-join on the session id; sessions without
// a login record are dropped by the join itself.
match filterLoggedIn(l, r) {
	o := concat(l, r)
	emit o
}

// Append User Info: joins on the user id and additionally materializes the
// profile field the user prefers — the field index is read from the data
// (u_pref), so static analysis cannot bound the access and must assume the
// UDF may read any attribute of its input.
match appendUserInfo(l, r) {
	o := concat(l, r)
	p := r[%[7]d]
	o[%[8]d] = r[p]
	emit o
}
`,
		f.Attr("c_ts"), f.Attr("c_session"), f.Attr("c_action"),
		f.Attr("cs_count"), f.Attr("cs_duration"), f.Attr("cs_hasbuy"),
		f.Attr("u_pref"), f.Attr("ui_pref_value"), ActionBuy)
	return frontend.Compile(src)
}

// manualFilterBuy: all-or-none per session group, deciding on the action
// field; forwards records unchanged.
func manualFilterBuy(f *dataflow.Flow) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(f.Attr("c_action"))
	e.CondReads = props.NewFieldSet(f.Attr("c_action"))
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 0, props.Unbounded
	e.AllOrNone = true
	return e
}

// manualCondense: copies the (group-constant) session fields, reads ts and
// action for the aggregates, creates the condensed attributes, and projects
// the per-click fields.
func manualCondense(f *dataflow.Flow) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(f.Attr("c_ts"), f.Attr("c_action"), f.Attr("c_session"))
	e.Sets = props.NewFieldSet(f.Attr("cs_count"), f.Attr("cs_duration"), f.Attr("cs_hasbuy"))
	e.Projects = props.NewFieldSet(f.Attr("c_ts"), f.Attr("c_action"))
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

func manualConcatJoin() *props.Effect {
	e := props.NewEffect(2)
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// manualAppendUser is the precise annotation SCA cannot derive: the dynamic
// profile access only ever touches user-side attributes (u_name or u_age,
// selected by u_pref), so the read set is confined to the user relation.
func manualAppendUser(f *dataflow.Flow) *props.Effect {
	e := props.NewEffect(2)
	e.Reads = props.NewFieldSet(f.Attr("u_pref"), f.Attr("u_name"), f.Attr("u_age"))
	e.Sets = props.NewFieldSet(f.Attr("ui_pref_value"))
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// Generate produces deterministic click, login, and user data sets laid out
// on the flow's global record.
func (g *GenParams) Generate(f *dataflow.Flow) map[string]record.DataSet {
	rng := rand.New(rand.NewSource(g.Seed))
	attr := func(n string) int { return f.Attr(n) }
	width := f.NumAttrs()
	mk := func(fields map[int]record.Value) record.Record {
		r := record.NewRecord(width)
		for i, v := range fields {
			r.SetField(i, v)
		}
		return r
	}

	var clicks record.DataSet
	var logins record.DataSet
	for s := 0; s < g.Sessions; s++ {
		ip := record.String(fmt.Sprintf("10.0.%d.%d", s/250, s%250))
		n := 1 + rng.Intn(2*g.ClicksPerSess-1)
		hasBuy := rng.Float64() < g.BuyRate
		buyAt := -1
		if hasBuy {
			buyAt = rng.Intn(n)
		}
		base := int64(1_000_000 + s*10_000)
		for c := 0; c < n; c++ {
			action := ActionView
			if c == buyAt {
				action = ActionBuy
			}
			clicks = append(clicks, mk(map[int]record.Value{
				attr("c_ip"):      ip,
				attr("c_ts"):      record.Int(base + int64(c*13)),
				attr("c_session"): record.Int(int64(s)),
				attr("c_action"):  record.Int(int64(action)),
			}))
		}
		if rng.Float64() < g.LoginRate {
			logins = append(logins, mk(map[int]record.Value{
				attr("l_session"): record.Int(int64(s)),
				attr("l_user"):    record.Int(int64(rng.Intn(g.Users))),
			}))
		}
	}

	var users record.DataSet
	nameIdx, ageIdx := attr("u_name"), attr("u_age")
	for u := 0; u < g.Users; u++ {
		pref := nameIdx
		if rng.Intn(2) == 0 {
			pref = ageIdx
		}
		users = append(users, mk(map[int]record.Value{
			attr("u_key"):  record.Int(int64(u)),
			attr("u_name"): record.String(fmt.Sprintf("user%04d", u)),
			attr("u_age"):  record.Int(int64(18 + rng.Intn(60))),
			attr("u_pref"): record.Int(int64(pref)),
		}))
	}

	return map[string]record.DataSet{
		"click": clicks,
		"login": logins,
		"user":  users,
	}
}
