// Command rules generates association rules from frequent itemsets saved by
// `apriori -save`, with filtering and optional item names.
//
// Usage:
//
//	apriori -minsup 0.001 -save freq.txt t15i6.dat
//	rules -load freq.txt -minconf 0.9 -top 20
//	rules -load freq.txt -minconf 0.8 -item 42        # rules involving item 42
//	rules -load freq.txt -vocab names.txt -top 10     # with product names
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parapriori"
)

// machineNames lists the -machine spellings from the preset registry, so
// the flag stays in sync as models are added.
func machineNames() string {
	var names []string
	for _, p := range parapriori.Machines() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		load    = flag.String("load", "", "frequent itemsets saved by apriori -save")
		minconf = flag.Float64("minconf", 0.8, "minimum confidence")
		topk    = flag.Int("top", 0, "print only the strongest K rules (0 = all)")
		item    = flag.Int("item", -1, "only rules whose antecedent or consequent contains this item")
		vocab   = flag.String("vocab", "", "vocabulary file (one item name per line) for readable output")
		procs   = flag.Int("p", 0, "generate on an emulated cluster of this many processors (0 = serial)")
		machine = flag.String("machine", "t3e", "machine model for -p: "+machineNames())
	)
	flag.Parse()

	if *procs < 0 {
		fmt.Fprintf(os.Stderr, "rules: -p %d: want 0 (serial) or a processor count\n", *procs)
		os.Exit(2)
	}
	if *load == "" {
		fmt.Fprintln(os.Stderr, "rules: need -load <frequent itemsets saved by apriori -save>")
		os.Exit(1)
	}
	res, err := loadResult(*load)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rules: %v\n", err)
		os.Exit(1)
	}

	var v *parapriori.Vocabulary
	if *vocab != "" {
		f, err := os.Open(*vocab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rules: %v\n", err)
			os.Exit(1)
		}
		v, err = parapriori.ReadVocabulary(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rules: %v\n", err)
			os.Exit(1)
		}
	}

	var out []parapriori.Rule
	if *procs > 0 {
		preset, ok := parapriori.MachineByName(*machine)
		if !ok {
			fmt.Fprintf(os.Stderr, "rules: unknown machine %q (want %s)\n", *machine, machineNames())
			os.Exit(2)
		}
		rep, err := parapriori.GenerateRulesOn(res, parapriori.RuleGenOptions{
			Procs:         *procs,
			Machine:       preset.Machine(),
			MinConfidence: *minconf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rules: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rules: generated on %d emulated procs in %.6fs virtual (imbalance %.3f)\n",
			*procs, rep.ResponseTime, rep.TimeImbalance)
		out = rep.Rules
	} else {
		out, err = parapriori.GenerateRules(res, *minconf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rules: %v\n", err)
			os.Exit(1)
		}
	}

	printed := 0
	for _, r := range out {
		if *item >= 0 {
			it := parapriori.Item(*item)
			if !r.Antecedent.Contains(it) && !r.Consequent.Contains(it) {
				continue
			}
		}
		if *topk > 0 && printed >= *topk {
			break
		}
		if v != nil {
			fmt.Printf("%-30s => %-20s sup %.4f, conf %.4f, lift %.4f, lev %+.4f\n",
				v.Label(r.Antecedent), v.Label(r.Consequent), r.Support, r.Confidence, r.Lift, r.Leverage)
		} else {
			fmt.Println(r)
		}
		printed++
	}
	fmt.Fprintf(os.Stderr, "rules: %d printed of %d total\n", printed, len(out))
}

// loadResult reads the frequent itemsets apriori -save wrote to path.
func loadResult(path string) (*parapriori.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parapriori.ReadResult(f)
}
