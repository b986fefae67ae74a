// Command experiments reproduces the paper's evaluation artifacts: the
// rank-sweep series of Figures 5–7, the manual-vs-SCA comparison of
// Table 1, the enumeration-time measurement, and the Q15 physical-strategy
// narrative of Section 7.3.
//
// Usage:
//
//	experiments -exp all|fig5|fig6|fig7|table1|enumtime|q15 [-sf N] [-dop N] [-picks N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"blackboxflow/internal/experiments"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is experiments on the given arguments: it returns the exit status —
// 0, 1 when an experiment fails, 2 when an argument is not a flag: the flag
// package stops at the first one, so a flag after it would be dropped
// silently.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all, fig5, fig6, fig7, table1, enumtime, q15")
	sf := fs.Float64("sf", 1.0, "TPC-H scale factor")
	dop := fs.Int("dop", 4, "degree of parallelism")
	picks := fs.Int("picks", 10, "plans executed per rank sweep")
	fs.Parse(args) // a bad flag exits 2, -h exits 0
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected argument %q; every option is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	status := 0
	step := func(name string, fn func() error) {
		if status != 0 || *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			status = 1
		}
	}

	step("fig5", func() error {
		g := tpch.DefaultGen()
		g.SF = *sf
		res, err := experiments.Fig5Q7(g, *dop, *picks)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res)
		return nil
	})

	step("fig6", func() error {
		res, err := experiments.Fig6TextMining(textmine.DefaultGen(), *dop, *picks)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res)
		return nil
	})

	step("fig7", func() error {
		res, err := experiments.Fig7Clickstream(clickstream.DefaultGen(), *dop)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res)
		return nil
	})

	step("table1", func() error {
		res, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Table 1: enumerated orders, manual annotation vs. SCA")
		fmt.Fprintln(stdout, res)
		return nil
	})

	step("enumtime", func() error {
		rows, err := experiments.EnumTimes()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Enumeration time (paper: < 1654 ms for all tasks)")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-14s  %6d plans  %12v\n", r.Task, r.Plans, r.Duration.Round(time.Microsecond))
		}
		fmt.Fprintln(stdout)
		return nil
	})

	step("q15", func() error {
		g := tpch.DefaultGen()
		g.SF = *sf
		s, err := experiments.Q15Strategies(g, *dop)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Q15 physical strategies per operator order (Section 7.3):")
		fmt.Fprintln(stdout, s)
		return nil
	})
	return status
}
