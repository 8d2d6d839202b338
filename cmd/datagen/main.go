// Command datagen writes a synthetic transaction database in basket format
// (one transaction per line, space-separated integer items) using the
// Quest-style generator of the paper's workloads.
//
// Usage:
//
//	datagen -n 100000 -items 1000 -tlen 15 -plen 6 -o t15i6.dat
//	datagen -n 50000000 -store big/ -partitions 64
//
// With -store the transactions are streamed straight from the generator
// into a partitioned on-disk dataset (one block resident at a time), so the
// database can be far larger than memory; mine it with
// `parminer -backend ooc -store <dir>`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parapriori"
)

func main() {
	var (
		n      = flag.Int("n", 100000, "number of transactions")
		items  = flag.Int("items", 1000, "item vocabulary size")
		tlen   = flag.Float64("tlen", 15, "average transaction length |T|")
		plen   = flag.Float64("plen", 6, "average pattern length |I|")
		pats   = flag.Int("patterns", 2000, "number of maximal potential patterns |L|")
		corr   = flag.Float64("corr", 0.5, "pattern correlation")
		seed   = flag.Int64("seed", 1, "random seed")
		out    = flag.String("o", "", "output file (default stdout)")
		format = flag.String("format", "text", "output format: text (basket lines) or binary (compact)")
		store  = flag.String("store", "", "write a partitioned on-disk dataset into this directory instead of a flat file, streaming from the generator")
		nparts = flag.Int("partitions", 0, "partition count for -store (0 = size-rolled)")
		blockB = flag.Int("blockbytes", 0, "block size in bytes for -store (0 = default)")
	)
	flag.Parse()

	opts := parapriori.DefaultGen()
	opts.NumTransactions = *n
	opts.NumItems = *items
	opts.AvgTxnLen = *tlen
	opts.AvgPatternLen = *plen
	opts.NumPatterns = *pats
	opts.Correlation = *corr
	opts.Seed = *seed

	if *store != "" {
		src, err := parapriori.GenerateSource(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // the generator's errors carry the datagen: prefix
			os.Exit(1)
		}
		ds, err := parapriori.WritePartitionedDataset(*store, src,
			parapriori.PartitionOptions{Partitions: *nparts, BlockBytes: *blockB})
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		info := ds.Info()
		fmt.Fprintf(os.Stderr, "datagen: wrote %d transactions, %d items, %d partitions to %s\n",
			info.NumTxns, info.NumItems, ds.Partitions(), *store)
		return
	}

	data, err := parapriori.Generate(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	write := parapriori.WriteDataset
	switch *format {
	case "text":
	case "binary":
		write = parapriori.WriteDatasetBinary
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown format %q (want text or binary)\n", *format)
		os.Exit(2)
	}
	if err := writeData(*out, data, write); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d transactions, %d items, avg length %.2f\n",
		data.Len(), data.NumItems, data.AvgLen())
}

// writeData writes data to path, or to stdout when path is empty.  A failed
// Close is a failed write.
func writeData(path string, data *parapriori.Dataset, write func(io.Writer, *parapriori.Dataset) error) error {
	if path == "" {
		return write(os.Stdout, data)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
