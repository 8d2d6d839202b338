// Package cluster emulates the message-passing parallel machine the paper
// ran on.  Each processor is a goroutine; messages travel through unbounded
// mailboxes; and every event — computation, message transfer, disk I/O —
// advances a per-processor *virtual clock* according to a machine cost
// model.  The response time of a run is the maximum virtual clock over the
// processors, which is what the paper's figures plot.
//
// # Why virtual time
//
// The paper's results are relative: CD vs DD vs IDD vs HD on the same
// machine.  All the effects it measures — communication volume, network
// contention, idle time, redundant computation, load imbalance — are
// functions of the message pattern and the operation counts, which the
// emulation reproduces exactly.  The virtual clock turns them into response
// times with the same shape as the Cray T3E and IBM SP2 figures, while the
// algorithms still genuinely execute in parallel (goroutines really carry
// the data through channels, and the mined itemsets are checked against the
// serial algorithm).
//
// # Contention model
//
// Transfers are charged latency + bytes/bandwidth at a per-processor
// *receive port* that serializes concurrent arrivals.  Messages belonging
// to an unstructured all-to-all (DD's page scatter) additionally carry a
// congestion factor equal to the ring distance between sender and receiver:
// on sparse interconnects such messages cross many shared links, and
// charging hop-proportional occupancy is the deterministic, local
// approximation of that link contention (Section III-B calls this pattern
// "significantly more than O(N)").  Structured patterns — neighbor shifts,
// binomial trees, ring all-gathers — use disjoint links and keep factor 1.
//
// # Messaging and faults
//
// There are five messaging primitives: Send, SendContended and SendBlocking
// (structured, congested, and congested with the sender waiting out the
// transfer) and Recv and RecvAny (by tag, or whatever comes next).  A
// program never chooses between a plain and a reliable operation:
// reliability is a property of the machine.  With a FaultPlan installed
// every frame any of the three sends posts is sequenced and may be dropped,
// duplicated, delayed or reordered, and every receive runs the retry
// protocol that recovers from it, on the virtual clock (reliable.go); with
// none installed frames go straight through the mailboxes and none of that
// code runs.
package cluster

// Machine is the cost model of the emulated parallel computer.
type Machine struct {
	// Name labels the preset in experiment output.
	Name string
	// Latency is the per-message startup time in seconds (the paper
	// measured an effective 16 µs on the T3E).
	Latency float64
	// Bandwidth is the per-link bandwidth in bytes/second (303 MB/s
	// measured on the T3E, 35 MB/s effective on the SP2's switch).
	Bandwidth float64
	// Overlap reports whether the hardware lets communication proceed
	// concurrently with computation (both the T3E and SP2 do; setting it
	// false reproduces the paper's "system that cannot perform asynchronous
	// communication" remarks).
	Overlap bool
	// IOBandwidth is the sustained disk-read bandwidth in bytes/second.
	// Zero means I/O is free — the T3E experiments kept the database in a
	// memory buffer and ignored I/O, and we reproduce that default.
	IOBandwidth float64
	// Compute cost constants, seconds per operation.  They correspond to
	// the t_travers / t_check terms of the Section IV analysis plus the
	// hash-tree construction and reduction work.
	TTravers float64 // per hash-tree traversal step (pointer chase)
	// TArray is the cost of one contiguous-array navigation step (the trie
	// engine's merge-join comparison or gallop probe).  The same abstract
	// role as TTravers but far cheaper: a compare-and-branch over packed
	// int32 arrays that the hardware prefetcher keeps in cache, versus a
	// hash step whose child lookup is a dependent load that typically
	// misses.  Calibrated at roughly TTravers/8 — the DESIGN.md derivation
	// counts ~3-4 cycles for the compare against the ~25-30 cycle average
	// of a hash step once misses are amortized in.
	TArray  float64
	TCheck  float64 // per candidate containment test at a leaf
	TInsert float64 // per candidate insertion during tree construction
	TGen    float64 // per candidate produced by apriori_gen (replicated work)
	TItem   float64 // per item touched in scanning work (F1, filtering)
	TReduce float64 // per element combined in a reduction
	// TWord is the cost of one 64-bit bitmap word operation (AND +
	// popcount), the counting unit of the vertical bitset engine.  Far
	// cheaper than a tree traversal step: it is straight-line register
	// arithmetic over contiguous words, with no pointer chase.
	TWord float64
	// MemoryBytes is the per-processor memory available for the candidate
	// hash tree.  Zero means unbounded.  CD partitions its tree — and
	// rescans the database — when the candidates exceed this (Figure 12).
	MemoryBytes int
}

// T3E returns the cost model of the paper's primary platform: a Cray T3E
// with 600 MHz Alpha (EV5) processors, 512 MB per node, a 3-D torus with
// 303 MB/s measured bandwidth and 16 µs effective startup, and the database
// held in a main-memory buffer (I/O free).
func T3E() Machine {
	return Machine{
		Name:      "CrayT3E",
		Latency:   16e-6,
		Bandwidth: 303e6,
		Overlap:   true,
		// 600 MHz EV5: a hash step is a few tens of cycles once cache
		// misses are counted; a leaf check walks two short sorted lists.
		TTravers: 120e-9,
		TArray:   15e-9,
		TCheck:   80e-9,
		TInsert:  500e-9,
		TGen:     150e-9,
		TItem:    25e-9,
		TReduce:  12e-9,
		TWord:    8e-9,
	}
}

// SP2 returns the cost model of the paper's secondary platform: a 16-node
// IBM SP2 (66.7 MHz Power2) whose High Performance Switch peaks at
// 110 MB/s (≈35 MB/s effective), with the database resident on disk so
// rescans cost real I/O — the regime of Figure 12.
func SP2() Machine {
	return Machine{
		Name:        "IBMSP2",
		Latency:     40e-6,
		Bandwidth:   35e6,
		Overlap:     true,
		IOBandwidth: 20e6,
		// The Power2 runs at a ninth of the EV5's clock.
		TTravers: 900e-9,
		TArray:   110e-9,
		TCheck:   600e-9,
		TInsert:  3500e-9,
		TGen:     1100e-9,
		TItem:    180e-9,
		TReduce:  90e-9,
		TWord:    60e-9,
	}
}

// COW returns a "cluster of workstations" model: commodity machines on
// switched 100 Mbit Ethernet — high latency, thin pipes, no real
// compute/communication overlap, local disks.  Useful for exploring how the
// formulations behave off supercomputer interconnects (the CD paper [6]
// argued CD's single reduction makes it the COW-friendly choice, which this
// preset reproduces).
func COW() Machine {
	return Machine{
		Name:        "COW",
		Latency:     500e-6,
		Bandwidth:   12.5e6,
		Overlap:     false,
		IOBandwidth: 30e6,
		TTravers:    100e-9,
		TArray:      12e-9,
		TCheck:      70e-9,
		TInsert:     450e-9,
		TGen:        130e-9,
		TItem:       22e-9,
		TReduce:     10e-9,
		TWord:       7e-9,
	}
}

// Ideal returns a machine with free communication (zero latency, effectively
// infinite bandwidth, full overlap) and the T3E's compute costs.  It is the
// ablation baseline that isolates communication effects: any gap between an
// algorithm's Ideal and T3E times is communication; any gap that remains on
// Ideal is computation (redundant work, load imbalance, serial bottlenecks).
func Ideal() Machine {
	m := T3E()
	m.Name = "Ideal"
	m.Latency = 0
	m.Bandwidth = 1e15
	m.Overlap = true
	return m
}

// transferTime returns the wire time of a message of the given size with a
// pattern congestion factor.
func (m Machine) transferTime(bytes int, congestion float64) float64 {
	if congestion < 1 {
		congestion = 1
	}
	if m.Bandwidth <= 0 {
		return 0
	}
	return congestion * float64(bytes) / m.Bandwidth
}
