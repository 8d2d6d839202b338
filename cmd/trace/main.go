// Command trace inspects span traces — a full trace saved by `parminer
// -trace out.json`, or a flight-ring dump from `parminer -flight out.json`
// or a server's /debug/flight: it prints the per-pass cost-attribution table
// (the measured counterpart of the paper's parallel-runtime decomposition),
// renders a text Gantt chart of the leaf compute/send/idle slices (at the
// default width, the chart `parminer -timeline` prints of the same run),
// prints the pass-duration histogram or the last n completed spans, or
// re-emits the trace as normalized, byte-deterministic Perfetto JSON.
//
// Usage:
//
//	parminer -algo idd -p 8 -minsup 0.01 -trace trace.json -flight ring.json t15i6.dat
//	trace trace.json                     # attribution table (the default)
//	trace ring.json                      # the same table over the ring's window
//	trace -timeline -width 120 trace.json
//	trace -hist trace.json
//	trace -flight 20 trace.json
//	trace -perfetto normalized.json trace.json
//
// The Perfetto output loads in ui.perfetto.dev or chrome://tracing: one
// process per rank, structural spans (run → pass → section) on one thread
// track and the leaf slices on another.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"parapriori/internal/obsv"
	"parapriori/internal/serve"
)

func main() {
	var (
		attrib   = flag.Bool("attrib", false, "print the per-pass cost-attribution table (default action)")
		timeline = flag.Bool("timeline", false, "render the leaf slices as a text Gantt chart")
		width    = flag.Int("width", 100, "timeline width in columns")
		perfetto = flag.String("perfetto", "", "re-emit the trace as normalized Perfetto JSON to this file")
		hist     = flag.Bool("hist", false, "print the pass-duration histogram, in the serving latency histogram's power-of-two microsecond buckets, with per-pass p50/p95/p99 lines")
		flight   = flag.Int("flight", 0, "print the n most recently completed spans (a flight-ring view of any trace)")
	)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: trace [flags] <trace.json>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	t, err := obsv.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	did := false
	if *perfetto != "" {
		out, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		if err := obsv.WriteTrace(out, t); err != nil {
			out.Close()
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		did = true
	}
	if *hist {
		if err := writeHist(os.Stdout, obsv.PassDurations(t, -1)); err != nil {
			fatal(err)
		}
		// Per-pass percentile lines over the per-rank pass durations: the
		// nearest-rank quantiles are exact over the sample, so a seeded run
		// prints identical lines every time.
		seen := make(map[int]bool)
		var ks []int
		for _, s := range t.Spans {
			if s.Cat != obsv.CatPass {
				continue
			}
			v, ok := s.Arg("k")
			if !ok {
				continue
			}
			k, err := strconv.Atoi(v)
			if err != nil {
				continue
			}
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		sort.Ints(ks)
		for _, k := range ks {
			d := obsv.PassDurations(t, k)
			fmt.Printf("pass k=%-3d n=%-4d p50=%.6f p95=%.6f p99=%.6f (seconds)\n",
				k, len(d), obsv.Quantile(d, 0.50), obsv.Quantile(d, 0.95), obsv.Quantile(d, 0.99))
		}
		did = true
	}
	if *flight > 0 {
		// A flight-ring view of any trace: the n spans that completed last,
		// oldest first — what a /debug/flight dump keeps per rank.
		spans := append([]obsv.Span(nil), t.Spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].End < spans[j].End })
		if len(spans) > *flight {
			spans = spans[len(spans)-*flight:]
		}
		for _, s := range spans {
			fmt.Printf("rank %-3d [%12.6f, %12.6f] %-8s %s\n", s.Rank, s.Start, s.End, s.Cat, s.Name)
		}
		did = true
	}
	if *timeline {
		if err := obsv.WriteTimeline(os.Stdout, t, *width); err != nil {
			fatal(err)
		}
		did = true
	}
	if *attrib || !did {
		if algo, ok := t.MetaValue("algo"); ok {
			p, _ := t.MetaValue("p")
			fmt.Printf("algorithm %s on %s procs (%s clock), %d spans\n", algo, p, t.Clock, len(t.Spans))
		}
		if err := obsv.WriteAttribution(os.Stdout, obsv.Attribution(t)); err != nil {
			fatal(err)
		}
	}
}

// writeHist prints the histogram of an ascending sample of durations in
// seconds: an n/min/max/mean header (summed in ascending order, so the
// line is a function of the multiset), then one row per serve.Hist bucket
// from the first through the last non-empty one — its bounds in seconds,
// its count and a bar of up to 40 columns.  Bucket i ≥ 1 is (2^(i-1),
// 2^i] µs, bucket 0 is [0, 1] µs, and the top bucket, above 2^30 µs, has
// no upper bound; each row prints its bounds that way.  A duration past
// the largest time.Duration counts in the top bucket.
func writeHist(w io.Writer, sorted []float64) error {
	var h serve.Hist
	var lo, hi, sum, mean float64
	for _, v := range sorted {
		d := time.Duration(math.MaxInt64)
		if ns := math.Round(v * 1e9); ns < math.MaxInt64 {
			d = time.Duration(ns)
		}
		h.Observe(d)
		sum += v
	}
	if n := len(sorted); n > 0 {
		lo, hi, mean = sorted[0], sorted[n-1], sum/float64(n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d min=%.6f max=%.6f mean=%.6f (seconds)\n", len(sorted), lo, hi, mean)
	counts, uppers := h.Counts(), append(h.UppersSeconds(), math.Inf(1))
	last := len(counts) - 1
	for last >= 0 && counts[last] == 0 {
		last--
	}
	edge := 0.0
	for i, c := range counts[:last+1] {
		bar := int(c * 40 / int64(len(sorted)))
		if bar == 0 && c > 0 {
			bar = 1
		}
		open, shut := "(", "]"
		if i == 0 {
			open = "["
		}
		if i == len(uppers)-1 {
			shut = ")"
		}
		fmt.Fprintf(&b, "%s%12.6f, %12.6f%s %6d %s\n", open, edge, uppers[i], shut, c, strings.Repeat("#", bar))
		edge = uppers[i]
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "trace: %v\n", err)
	os.Exit(1)
}
