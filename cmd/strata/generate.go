package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// cmdGenerate generates a population and prints its size and per-attribute
// statistics. With -csv, stdout carries the population as CSV and nothing
// else — "strata serve -data" and "strata query -data" read it back — and the
// summary goes to stderr.
func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	n := fs.Int("n", 10000, "number of individuals")
	seed := fs.Int64("seed", 1, "random seed")
	uniform := fs.Bool("uniform", false, "uniform attribute values (no correlations)")
	useGraph := fs.Bool("graph", false, "derive attributes from a generated coauthorship network")
	csv := fs.Bool("csv", false, "write the population as CSV to stdout (the summary goes to stderr)")
	subUsage(fs, `strata generate [-n 10000] [-uniform] [-graph] [-seed 1] [-csv]`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	summary := io.Writer(os.Stdout)
	if *csv {
		summary = os.Stderr
	}
	var pop *dataset.Relation
	switch {
	case *useGraph:
		g, err := graph.Generate(graph.DefaultParams(*n, *seed))
		if err != nil {
			return err
		}
		pop, err = g.Population(*seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(summary, "generated coauthorship network: %d authors, %d papers\n", g.N, len(g.Papers))
	case *uniform:
		pop = gen.UniformPopulation(*n, *seed)
	default:
		pop = gen.Population(*n, *seed)
	}

	fmt.Fprintf(summary, "population: %d individuals, schema %s\n", pop.Len(), pop.Schema())
	printAttrStats(summary, pop)
	if *csv {
		return pop.WriteCSV(os.Stdout)
	}
	return nil
}

func printAttrStats(w io.Writer, pop *dataset.Relation) {
	schema := pop.Schema()
	for j := 0; j < schema.NumFields(); j++ {
		f := schema.Field(j)
		vals := make([]int64, pop.Len())
		var sum float64
		for i := 0; i < pop.Len(); i++ {
			v := pop.Tuple(i).Attrs[j]
			vals[i] = v
			sum += float64(v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		q := func(p float64) int64 { return vals[int(p*float64(len(vals)-1))] }
		fmt.Fprintf(w, "  %-6s mean %8.2f  p50 %6d  p90 %6d  p99 %6d  max %6d   (%s)\n",
			f.Name, sum/float64(len(vals)), q(0.5), q(0.9), q(0.99), vals[len(vals)-1], f.Desc)
	}
}
