package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"blackboxflow/internal/jobs"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// The reference answers are computed with plain maps and loops over the
// generated source rows — never through the optimizer or the engine — so a
// bug that every plan shares still shows as a wrong answer. Rows arrive in
// each source's own attribute order (the order the documents declare);
// results are laid out on the global record like the server's.

// refQ7 computes Q7: lineitems shipped in [dateLo, dateHi], joined to their
// supplier's and customer's nations, kept for the FRANCE/GERMANY pairs, and
// summed per (customer nation, supplier nation, order year).
func refQ7(data map[string][]jobs.Row, at func(string) int, width int, dateLo, dateHi int64) []jobs.Row {
	nation := map[int64]string{}
	for _, r := range data["nation1"] {
		nation[r[0].(int64)] = r[1].(string)
	}
	suppNation := map[int64]int64{}
	for _, r := range data["supplier"] {
		suppNation[r[0].(int64)] = r[1].(int64)
	}
	custNation := map[int64]int64{}
	for _, r := range data["customer"] {
		custNation[r[0].(int64)] = r[1].(int64)
	}
	type order struct{ cust, year int64 }
	orders := map[int64]order{}
	for _, r := range data["orders"] {
		orders[r[0].(int64)] = order{r[1].(int64), r[2].(int64)}
	}
	type group struct {
		n1, n2 string
		year   int64
	}
	volume := map[group]int64{}
	for _, r := range data["lineitem"] {
		orderKey, suppKey, ship, revenue := r[0].(int64), r[1].(int64), r[2].(int64), r[3].(int64)
		if ship < dateLo || ship > dateHi {
			continue
		}
		o := orders[orderKey]
		n1, n2 := nation[custNation[o.cust]], nation[suppNation[suppKey]]
		if !(n1 == tpch.NationX && n2 == tpch.NationY) && !(n1 == tpch.NationY && n2 == tpch.NationX) {
			continue
		}
		volume[group{n1, n2, o.year}] += revenue
	}
	var out []jobs.Row
	for g, v := range volume {
		row := make(jobs.Row, width)
		row[at("n1_name")], row[at("n2_name")], row[at("o_year")], row[at("volume")] = g.n1, g.n2, g.year, v
		out = append(out, row)
	}
	return out
}

// refClicks computes the clickstream task: sessions with a buy action are
// condensed to one record (count, duration, buy flag), kept if the session
// logged in, and extended with the user's row and preferred profile field.
func refClicks(data map[string][]jobs.Row, at func(string) int, width int) []jobs.Row {
	type session struct {
		ip           string
		n, minT, max int64
		buy          bool
	}
	sessions := map[int64]*session{}
	for _, r := range data["click"] {
		ip, ts, id, action := r[0].(string), r[1].(int64), r[2].(int64), r[3].(int64)
		s := sessions[id]
		if s == nil {
			s = &session{ip: ip, minT: ts, max: ts}
			sessions[id] = s
		}
		s.n++
		s.minT, s.max = min(s.minT, ts), max(s.max, ts)
		s.buy = s.buy || action == clickstream.ActionBuy
	}
	users := map[int64]jobs.Row{}
	for _, r := range data["user"] {
		users[r[0].(int64)] = r
	}
	userCols := []string{"u_key", "u_name", "u_age", "u_pref"}
	var out []jobs.Row
	for _, l := range data["login"] {
		id, userKey := l[0].(int64), l[1].(int64)
		s, u := sessions[id], users[userKey]
		if s == nil || !s.buy || u == nil {
			continue
		}
		row := make(jobs.Row, width)
		row[at("c_ip")], row[at("c_session")] = s.ip, id
		row[at("cs_count")], row[at("cs_duration")], row[at("cs_hasbuy")] = s.n, s.max-s.minT, int64(clickstream.ActionBuy)
		row[at("l_session")], row[at("l_user")] = id, userKey
		for c, name := range userCols {
			row[at(name)] = u[c]
		}
		// u_pref holds the global index of the field the user prefers.
		pref := int(u[3].(int64))
		for c, name := range userCols {
			if at(name) == pref {
				row[at("ui_pref_value")] = u[c]
			}
		}
		out = append(out, row)
	}
	return out
}

// refTextmine computes the text-mining pipeline: documents holding all four
// markers survive, annotated with the token count and its derivatives.
func refTextmine(data map[string][]jobs.Row, at func(string) int, width int) []jobs.Row {
	var out []jobs.Row
	for _, r := range data["docs"] {
		id, text := r[0].(int64), r[1].(string)
		keep := true
		for _, m := range []string{textmine.MarkerGene, textmine.MarkerDrug, textmine.MarkerSpecies, textmine.MarkerRelation} {
			keep = keep && strings.Contains(text, m)
		}
		if !keep {
			continue
		}
		tokens := int64(len(text))
		row := make(jobs.Row, width)
		row[at("d_id")], row[at("d_text")] = id, text
		row[at("t_tokens")], row[at("t_pos")] = tokens, tokens/2
		row[at("t_genes")], row[at("t_drugs")], row[at("t_species")] = tokens, tokens, tokens
		row[at("t_relations")] = tokens/2 + 3*tokens
		out = append(out, row)
	}
	return out
}

// answer is an expected bag in comparable form: each row as compact JSON,
// sorted, plus the order-insensitive checksum later responses are held to.
type answer struct {
	rows []string
	sum  uint64
}

func newAnswer(rows []jobs.Row) *answer {
	a := &answer{rows: make([]string, len(rows))}
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			panic(fmt.Sprintf("reference row %v: %v", r, err)) // rows hold only int64 and string
		}
		a.rows[i] = string(b)
		a.sum += rowHash(b)
	}
	sort.Strings(a.rows)
	return a
}

func rowHash(compact []byte) uint64 {
	h := fnv.New64a()
	h.Write(compact)
	return h.Sum64()
}

// check compares a response's rows to the answer. full compares row for row
// (order-insensitive); otherwise row count and checksum must match.
func (a *answer) check(rows []json.RawMessage, full bool) error {
	if len(rows) != len(a.rows) {
		return fmt.Errorf("got %d rows, want %d", len(rows), len(a.rows))
	}
	var sum uint64
	var got []string
	var buf bytes.Buffer
	for _, r := range rows {
		buf.Reset()
		if err := json.Compact(&buf, r); err != nil {
			return fmt.Errorf("bad row %q: %w", r, err)
		}
		sum += rowHash(buf.Bytes())
		if full {
			got = append(got, buf.String())
		}
	}
	if full {
		sort.Strings(got)
		for i := range got {
			if got[i] != a.rows[i] {
				return fmt.Errorf("row %d of the sorted bag is %s, want %s", i, got[i], a.rows[i])
			}
		}
	}
	if sum != a.sum {
		return fmt.Errorf("checksum of %d rows is %x, want %x", len(rows), sum, a.sum)
	}
	return nil
}
