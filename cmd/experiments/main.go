// Command experiments regenerates the paper's tables and figures on the
// emulated machine and prints the series in the paper's units.
//
// Usage:
//
//	experiments -run fig10            # one experiment
//	experiments -run all -scale 2     # everything, at 2x workload
//	experiments -list                 # what is available
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parapriori/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment to run (see -list), or 'all'")
		scale  = flag.Float64("scale", 1.0, "workload scale factor")
		quick  = flag.Bool("quick", false, "trim sweeps to endpoints")
		seed   = flag.Int64("seed", 7, "workload random seed")
		list   = flag.Bool("list", false, "list experiments and exit")
		plot   = flag.Bool("plot", false, "render each figure as an ASCII chart too")
		format = flag.String("format", "text", "output format: text, csv or json")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.All() {
			fmt.Printf("%-8s %s\n", n.Name, n.Doc)
		}
		return
	}

	// Misuse is refused before anything runs: -run all mines for minutes.
	switch *format {
	case "text":
	case "csv", "json":
		if *plot {
			fmt.Fprintf(os.Stderr, "experiments: -plot draws an ASCII chart into the output; it needs -format text, not %s\n", *format)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q (want text, csv or json)\n", *format)
		os.Exit(2)
	}

	cfg := experiments.Config{Scale: *scale, Quick: *quick, Seed: *seed}
	var todo []experiments.Named
	if *run == "all" {
		todo = experiments.All()
	} else {
		n, ok := experiments.Lookup(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *run)
			os.Exit(2)
		}
		todo = []experiments.Named{n}
	}

	for _, n := range todo {
		start := time.Now()
		res, err := n.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", n.Name, err)
			os.Exit(1)
		}
		var werr error
		switch *format {
		case "text":
			werr = res.WriteText(os.Stdout)
		case "csv":
			werr = res.WriteCSV(os.Stdout)
		case "json":
			werr = res.WriteJSON(os.Stdout)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", n.Name, werr)
			os.Exit(1)
		}
		if *plot {
			if err := res.WriteChart(os.Stdout, 64, 18); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: plotting %s: %v\n", n.Name, err)
				os.Exit(1)
			}
		}
		if *format == "text" {
			fmt.Printf("   (%s wall)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
}
