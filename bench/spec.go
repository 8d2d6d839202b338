package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json and rejects misnamed or duplicated names.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: %s name %q is not made of [A-Za-z0-9_.-]", path, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q is used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := use("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range sp.EndToEnd {
		if err := use("end-to-end metric", m.Name); err != nil {
			return nil, err
		}
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %s has no bound", path, m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		if err := use("per-layer metric", m.Name); err != nil {
			return nil, err
		}
	}
	if sp.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds %d", path, sp.RunSeconds)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// workloads maps each declared workload to the function that runs it and to
// the letter that stands for it in layerMetrics.on.
var workloads = map[string]struct {
	letter string
	run    func(*run) error
}{
	"mine-wide":   {"w", func(r *run) error { return runMine(r, true) }},
	"mine-ooc":    {"o", func(r *run) error { return runMine(r, false) }},
	"serve-miss":  {"m", func(r *run) error { return runServe(r, serveMiss) }},
	"serve-hot":   {"h", func(r *run) error { return runServe(r, serveHot) }},
	"serve-churn": {"c", func(r *run) error { return runServe(r, serveChurn) }},
}

// layerMetric is one per-layer metric: which workloads' traced runs measure
// it (the others leave the layer idle and report 0), and whether it is a
// count that must repeat bit for bit for one seed.
type layerMetric struct {
	name  string
	on    string
	exact bool
}

// layerMetrics must list exactly BENCHMARK.json's per_layer names (a test
// holds the two together).
var layerMetrics = []layerMetric{
	{"datagen.gen_us_per_txn", "womhc", false},
	{"itemset.contains_all_ns", "wo", false},
	{"txstore.spill_mb_per_s", "o", false},
	{"txstore.open_s", "o", false},
	{"txstore.scan_s", "o", false},
	{"txstore.bytes_per_txn", "o", true},
	{"txstore.blocks", "o", true},
	{"txstore.crc_retries", "o", true},
	{"apriori.first_pass_s", "wo", false},
	{"apriori.gen_s", "wo", false},
	{"apriori.gen_allocs", "wo", false},
	{"apriori.candidates", "wo", true},
	{"apriori.serial_mine_s", "omhc", false},
	{"partition.binpack_s", "wo", false},
	{"partition.imbalance", "wo", true},
	{"countengine.hashtree.build_s", "wo", false},
	{"countengine.hashtree.count_ns_per_txn", "wo", false},
	{"countengine.hashtree.mem_mb", "wo", true},
	{"countengine.hashtree.ops", "wo", true},
	{"countengine.hashtree.host_over_model", "wo", false},
	{"countengine.trie.build_s", "wo", false},
	{"countengine.trie.count_ns_per_txn", "wo", false},
	{"countengine.trie.mem_mb", "wo", true},
	{"countengine.trie.ops", "wo", true},
	{"countengine.trie.host_over_model", "wo", false},
	{"countengine.bitset.build_s", "wo", false},
	{"countengine.bitset.count_ns_per_txn", "wo", false},
	{"countengine.bitset.mem_mb", "wo", true},
	{"countengine.bitset.ops", "wo", true},
	{"countengine.bitset.host_over_model", "wo", false},
	{"hashtree.leaf_checks_per_txn", "w", true},
	{"hashtree.leaf_visits_per_txn", "w", true},
	{"hashtree.traversals", "w", true},
	{"cluster.compute_s", "wo", true},
	{"cluster.idle_s", "wo", true},
	{"cluster.send_s", "wo", true},
	{"cluster.io_s", "wo", true},
	{"cluster.bytes_sent", "wo", true},
	{"cluster.messages_sent", "wo", true},
	{"core.virtual_response_s", "wo", true},
	{"core.mine_wall_s", "wo", false},
	{"core.txn_per_s", "wo", false},
	{"core.cd.wall_s", "wo", false},
	{"core.cd.virtual_s", "wo", true},
	{"core.idd.wall_s", "wo", false},
	{"core.idd.virtual_s", "wo", true},
	{"core.hd.wall_s", "wo", false},
	{"core.hd.virtual_s", "wo", true},
	{"core.phase.subset_s", "wo", true},
	{"core.phase.tree_build_s", "wo", true},
	{"core.phase.candidate_gen_s", "wo", true},
	{"core.phase.partition_s", "wo", true},
	{"core.phase.filter_s", "wo", true},
	{"core.phase.reduction_s", "wo", true},
	{"core.phase.scan_s", "wo", true},
	{"core.phase.decode_s", "wo", true},
	{"core.time_imbalance_max", "wo", true},
	{"core.cand_imbalance_max", "wo", true},
	{"core.inmem.wall_s", "wo", false},
	{"core.ooc.wall_s", "o", false},
	{"core.ooc.read_blocks", "o", true},
	{"core.ooc.read_bytes", "o", true},
	{"core.ooc.read_stalls", "o", true},
	{"core.ooc.decode_virtual_s", "o", true},
	{"core.ooc.peak_rss_mb", "o", false},
	{"rules.generate_s", "omhc", false},
	{"rules.count", "omhc", true},
	{"serve.index_build_s", "omh", false},
	{"serve.publish_us", "omh", false},
	{"serve.index.recommend_us", "mh", false},
	{"serve.rank_truncate_us", "mh", false},
	{"serve.matches_per_query", "mh", true},
	{"serve.useful_ratio", "mh", true},
	{"serve.alloc_bytes_per_query", "mh", false},
	{"serve.server.miss_us", "mh", false},
	{"serve.server.hit_us", "mh", false},
	{"serve.cache_hit_rate", "mh", false},
	{"serve.hist.observe_ns", "mh", false},
	{"serve.pooled.miss_us", "mh", false},
	{"serve.http.roundtrip_us", "mh", false},
	{"distserve.router.recommend_us", "c", false},
	{"distserve.fanout_per_query", "c", false},
	{"distserve.hedges", "c", false},
	{"distserve.retries", "c", false},
	{"distserve.refreshes", "c", false},
	{"distserve.mixed", "c", false},
	{"distserve.partial", "c", false},
	{"distserve.publish.delta_s", "c", false},
	{"distserve.publish.full_s", "c", false},
	{"distserve.publish.delta_bytes", "c", true},
	{"distserve.publish.full_bytes", "c", true},
	{"obsv.flight.record_ns", "mhc", false},
	{"loadgen.sent", "mhc", false},
	{"loadgen.late_max_ms", "mhc", false},
	{"loadgen.backlog_max", "mhc", false},
	{"loadgen.p50_us", "mhc", false},
	{"loadgen.p99_us", "mhc", false},
	{"loadgen.p999_us", "mhc", false},
	{"loadgen.max_rate_ok_qps", "mhc", false},
	{"bench.trace_overhead_share", "womhc", false},
}

// scale holds the input sizes.  The shapes (items, patterns, support,
// processors, engines) are fixed in the workloads; only N and the sample
// sizes shrink for -smoke.
type scale struct {
	smoke bool
	// setups is how many times a run sets the workload up; setup_s is the
	// median.
	setups int
	// wideN, oocN and serveN are the transaction counts of mine-wide,
	// mine-ooc and the dataset the serve-* rules are mined from.
	wideN, oocN, serveN int
	// wideMinsup is mine-wide's support threshold: 1.07 % gives the
	// workload's quarter of a million candidates, which take seconds, so
	// -smoke asks for 4 % and gets a few hundred.
	wideMinsup float64
	// traceTxns is how many transactions the traced per-engine count spans
	// stream.
	traceTxns int
	// pool is the number of distinct baskets of each serving workload;
	// layerQueries is the sample of the fixed-count layer measurements.
	pool         map[serveKind]int
	layerQueries int
}

func scaleFor(smoke bool) scale {
	if smoke {
		return scale{smoke: true, setups: 2, wideN: 1000, oocN: 1000, serveN: 1000, wideMinsup: 0.04,
			traceTxns: 100, layerQueries: 50,
			pool: map[serveKind]int{serveMiss: 64, serveHot: 64, serveChurn: 128}}
	}
	return scale{setups: 5, wideN: 8000, oocN: 200000, serveN: 100000, wideMinsup: 0.0107,
		traceTxns: 2000, layerQueries: 1000,
		pool: map[serveKind]int{serveMiss: 2048, serveHot: 512, serveChurn: 2048}}
}
