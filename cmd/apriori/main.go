// Command apriori mines frequent itemsets from a basket-format transaction
// file with the serial Apriori algorithm, and saves them for the rules
// command.
//
// Usage:
//
//	apriori -minsup 0.001 -summary t15i6.dat
//	apriori -minsup 0.01 -save freq.txt t15i6.dat
//	rules -load freq.txt -minconf 0.8 -top 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parapriori"
)

func main() {
	var (
		minsup  = flag.Float64("minsup", 0.01, "minimum support (fraction of transactions)")
		summary = flag.Bool("summary", false, "print only per-pass statistics")
		dhp     = flag.Int("dhp", 0, "DHP pair-hash buckets (0 = disabled)")
		engine  = flag.String("engine", "", "counting engine: "+strings.Join(parapriori.CountEngines(), ", ")+" (default hashtree)")
		save    = flag.String("save", "", "save the frequent itemsets to this file (rules -load reads it)")
	)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: apriori [flags] <transactions.dat>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "apriori: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	data, err := parapriori.ReadDataset(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apriori: %v\n", err)
		os.Exit(1)
	}

	res, err := parapriori.Mine(data, parapriori.MineOptions{MinSupport: *minsup, DHPBuckets: *dhp, Engine: *engine})
	if err != nil {
		fmt.Fprintf(os.Stderr, "apriori: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("transactions: %d, items: %d, minsup count: %d\n", data.Len(), data.NumItems, res.MinCount)
	if *save != "" {
		if err := writeResult(*save, res); err != nil {
			fmt.Fprintf(os.Stderr, "apriori: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("%-5s %-12s %-10s\n", "pass", "candidates", "frequent")
	for _, p := range res.Passes {
		fmt.Printf("%-5d %-12d %-10d\n", p.K, p.Candidates, p.Frequent)
	}
	fmt.Printf("total frequent itemsets: %d\n", res.NumFrequent())
	if *summary {
		return
	}

	for _, level := range res.Levels {
		for _, fs := range level {
			fmt.Printf("%v %d\n", fs.Items, fs.Count)
		}
	}
}

// writeResult saves the frequent itemsets to path.  A failed Close is a
// failed save: the file is the only hand-off to the rules command.
func writeResult(path string, res *parapriori.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := parapriori.WriteResult(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
