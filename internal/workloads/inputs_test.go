package workloads_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// TestInputsGolden pins what the end-to-end benchmark builds its documents
// from: each paper workload's manual-mode flow layout (attribute names in
// global order) and the SHA-256 of its generated rows (sources in name
// order, records in their wire encoding) at a small fixed size.
func TestInputsGolden(t *testing.T) {
	g := &tpch.GenParams{SF: 0.05, Seed: 1}
	cg := &clickstream.GenParams{Sessions: 40, ClicksPerSess: 12, BuyRate: 0.10, LoginRate: 0.30, Users: 8, Seed: 1}
	tg := textmine.DefaultGen()
	tg.Docs, tg.Seed = 12, 1
	type inputs struct {
		flow *dataflow.Flow
		data map[string]record.DataSet
	}
	var b strings.Builder
	for _, w := range []struct {
		name  string
		build func() (inputs, error)
	}{
		{"q7", func() (inputs, error) {
			q, err := tpch.BuildQ7(tpch.ModeManual, g)
			if err != nil {
				return inputs{}, err
			}
			return inputs{q.Flow, g.Generate(q.Flow)}, nil
		}},
		{"q15", func() (inputs, error) {
			q, err := tpch.BuildQ15(tpch.ModeManual, g)
			if err != nil {
				return inputs{}, err
			}
			return inputs{q.Flow, g.Generate(q.Flow)}, nil
		}},
		{"clickstream", func() (inputs, error) {
			c, err := clickstream.Build(clickstream.ModeManual, cg)
			if err != nil {
				return inputs{}, err
			}
			return inputs{c.Flow, cg.Generate(c.Flow)}, nil
		}},
		{"textmine", func() (inputs, error) {
			tm, err := textmine.Build(textmine.ModeManual, tg)
			if err != nil {
				return inputs{}, err
			}
			return inputs{tm.Flow, tg.Generate(tm.Flow)}, nil
		}},
	} {
		in, err := w.build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		attrs := make([]string, in.flow.NumAttrs())
		for i := range attrs {
			attrs[i] = in.flow.AttrName(i)
		}
		names := make([]string, 0, len(in.data))
		for n := range in.data {
			names = append(names, n)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, n := range names {
			fmt.Fprintf(h, "%s %d\n", n, len(in.data[n]))
			for _, rec := range in.data[n] {
				h.Write(rec.AppendEncoded(nil))
			}
		}
		fmt.Fprintf(&b, "%s attrs=%s rows=%x\n", w.name, strings.Join(attrs, ","), h.Sum(nil))
	}

	got := b.String()
	path := filepath.Join("testdata", "inputs.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("generator inputs diverge from the fixture\n got:\n%s\nwant:\n%s", got, want)
	}
}
