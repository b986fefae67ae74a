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

// Def states the data flow of Figure 4(a) at g's sizes:
//
//	click → Reduce(filter buy sessions) → Reduce(condense sessions)
//	      → Match(filter logged-in sessions, login) → Match(append user
//	      info, user) → sink
func Def(g *GenParams) *workloads.Def {
	flow := dataflow.FlowDef{
		Sources: []dataflow.SourceDef{
			{Name: "click", Attrs: []string{"c_ip", "c_ts", "c_session", "c_action"}, Records: float64(g.Clicks()), AvgWidthByte: 40},
			{Name: "login", Attrs: []string{"l_session", "l_user"}, Records: float64(g.Logins()), AvgWidthByte: 22},
			{Name: "user", Attrs: []string{"u_key", "u_name", "u_age", "u_pref"}, Records: float64(g.Users), AvgWidthByte: 48},
		},
		Attrs: []string{"cs_count", "cs_duration", "cs_hasbuy", "ui_pref_value"},
		Ops: []dataflow.OpDef{
			{Kind: "reduce", Name: "filter_buy_sessions", UDF: "filterBuySessions", Inputs: []string{"click"},
				Keys: [][]string{{"c_session"}}, Selectivity: float64(g.ClicksPerSess) * g.BuyRate, KeyCardinality: float64(g.Sessions)},
			{Kind: "reduce", Name: "condense_sessions", UDF: "condenseSessions", Inputs: []string{"filter_buy_sessions"},
				Keys: [][]string{{"c_session"}}, Selectivity: 1, KeyCardinality: float64(g.Sessions) * g.BuyRate},
			// The join filters: only LoginRate of the click-side records
			// find a login partner (the paper's "selecting only sessions
			// with logged in users"). Click sessions reference at most one
			// login.
			{Kind: "match", Name: "filter_loggedin", UDF: "filterLoggedIn", Inputs: []string{"condense_sessions", "login"},
				Keys: [][]string{{"c_session"}, {"l_session"}}, FK: "left", KeyCardinality: float64(g.Sessions), Selectivity: g.LoginRate},
			// Each logged-in session references one user.
			{Kind: "match", Name: "append_userinfo", UDF: "appendUserInfo", Inputs: []string{"filter_loggedin", "user"},
				Keys: [][]string{{"l_user"}, {"u_key"}}, FK: "left", KeyCardinality: float64(g.Users)},
		},
		Sink: "append_userinfo",
	}
	at := workloads.Layout(&flow)
	script := fmt.Sprintf(`
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
		at["c_ts"], at["c_session"], at["c_action"],
		at["cs_count"], at["cs_duration"], at["cs_hasbuy"],
		at["u_pref"], at["ui_pref_value"], ActionBuy)
	return &workloads.Def{Script: script, Flow: flow}
}

// Build builds the clickstream flow with the effects mode asks for.
func Build(mode Mode, g *GenParams) (*Task, error) {
	f, err := Def(g).Build(mode, func(f *dataflow.Flow) map[string]*props.Effect {
		return map[string]*props.Effect{
			"filter_buy_sessions": manualFilterBuy(f),
			"condense_sessions":   manualCondense(f),
			"filter_loggedin":     workloads.ConcatJoin(),
			"append_userinfo":     manualAppendUser(f),
		}
	})
	if err != nil {
		return nil, err
	}
	return &Task{Flow: f}, nil
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
