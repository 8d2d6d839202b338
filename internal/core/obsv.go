package core

import (
	"strconv"

	"parapriori/internal/cluster"
	"parapriori/internal/countengine"
	"parapriori/internal/obsv"
)

// Span emission for the mining engine.  When Params.Recorder is set, the
// SPMD bodies emit a hierarchy over the virtual clock — run → pass →
// section — into the same recorder the emulated machine emits its leaf
// slices into, so an exported trace shows every rank's timeline from the
// whole run down to individual compute slices and messages, and each
// rank's spans arrive in the order that rank completed them.  With a nil
// recorder every hook is one branch.

// sec records one engine section span covering [start, now] on the
// processor's rank.  Zero-duration sections (e.g. a checkpoint on a
// fault-free run, where the checkpoint charges nothing) are skipped, like
// the cluster's own zero-length slices.
func (r *run) sec(p *cluster.Proc, name string, start float64, args ...obsv.Attr) {
	if r.rec == nil {
		return
	}
	end := p.Clock()
	if end <= start {
		return
	}
	r.rec.Record(obsv.Span{
		Name: name, Cat: obsv.CatSection, Rank: p.ID(),
		Start: start, End: end, Args: args,
	})
}

// passSpan records the span of the rank's most recently appended pass,
// ending now — callers invoke it after the pass's checkpoint charges land,
// so consecutive pass spans tile the rank's timeline and the attribution
// report can bucket every slice.  Extra args (grid position) are appended
// to the standard set.
func (r *run) passSpan(p *cluster.Proc, tr *procTrace, extra ...obsv.Attr) {
	if r.rec == nil {
		return
	}
	pl := tr.passes[len(tr.passes)-1]
	args := []obsv.Attr{
		obsv.Int("k", int64(pl.k)),
		obsv.Int("candidates", int64(pl.candidates)),
		obsv.Int("local_candidates", int64(pl.localCands)),
		obsv.Int("frequent", int64(pl.frequent)),
		obsv.Int("grid_rows", int64(pl.gridRows)),
		obsv.Int("grid_cols", int64(pl.gridCols)),
		obsv.Int("bytes_moved", pl.bytesMoved),
	}
	if pl.read.Blocks > 0 {
		args = append(args,
			obsv.Int("read_blocks", pl.read.Blocks),
			obsv.Int("read_bytes", pl.read.Bytes),
			obsv.Int("read_stalls", pl.read.Stalls),
			obsv.Float("decode_seconds", pl.read.DecodeSeconds),
		)
	}
	args = append(args, extra...)
	r.rec.Record(obsv.Span{
		Name: "pass k=" + strconv.Itoa(pl.k), Cat: obsv.CatPass, Rank: p.ID(),
		Start: pl.clockStart, End: p.Clock(), Args: args,
	})
}

// runSpan finishes the observability trace after the cluster run with one
// cluster-wide span covering [0, MaxClock].
func (r *run) runSpan(resumed int) {
	if r.rec == nil {
		return
	}
	r.rec.Record(obsv.Span{
		Name: "mine " + string(r.prm.Algo), Cat: obsv.CatRun, Rank: -1,
		Start: 0, End: r.cl.MaxClock(),
		Args: []obsv.Attr{
			obsv.Int("p", int64(r.prm.P)),
			obsv.Int("passes", int64(len(r.perProc[r.firstActive()].passes))),
			obsv.Int("restarts", int64(r.restarts)),
			obsv.Int("resumed_passes", int64(resumed)),
		},
	})
}

// WriteProm renders the run's outcome as Prometheus text exposition — one
// scrape-shaped snapshot of a finished mine, so mining results use the same
// exposition writer and naming scheme as the serving tiers.  The values are
// virtual-clock quantities: on a seeded run the exposition is bit-identical
// between runs.
func (r *Report) WriteProm(w *obsv.PromWriter) {
	var moved int64
	for _, pass := range r.Passes {
		moved += pass.BytesMoved
	}
	w.Gauge("parapriori_mine_response_seconds", "Total virtual response time of the mining run.", r.ResponseTime)
	w.Gauge("parapriori_mine_passes", "Level-wise passes the run performed.", float64(len(r.Passes)))
	w.Gauge("parapriori_mine_processors", "Emulated processors the run used.", float64(r.P))
	w.Counter("parapriori_mine_bytes_moved_total", "Transaction bytes communicated between processors.", float64(moved))
	w.Counter("parapriori_mine_read_partitions_total", "Partition files the out-of-core read path opened.", float64(r.Read.Partitions))
	w.Counter("parapriori_mine_read_blocks_total", "Blocks the out-of-core read path verified.", float64(r.Read.Blocks))
	w.Counter("parapriori_mine_read_bytes_total", "On-disk bytes the out-of-core read path consumed.", float64(r.Read.Bytes))
	w.Counter("parapriori_mine_read_stalls_total", "Synchronous block reads the ranks' clocks waited on.", float64(r.Read.Stalls))
	w.Counter("parapriori_mine_crc_retries_total", "Block checksum failures survived by re-reading.", float64(r.Read.CRCRetries))
	w.Counter("parapriori_mine_decode_seconds_total", "Virtual compute seconds spent decoding blocks.", r.Read.DecodeSeconds)
}

// setRunMeta stamps the trace-level attributes of a mining run.
func (r *run) setRunMeta() {
	if r.rec == nil {
		return
	}
	r.rec.SetMeta("clock", string(obsv.ClockVirtual))
	r.rec.SetMeta("algo", string(r.prm.Algo))
	r.rec.SetMeta("p", strconv.Itoa(r.prm.P))
	r.rec.SetMeta("machine", r.prm.Machine.Name)
	r.rec.SetMeta("min_support", strconv.FormatFloat(r.prm.Apriori.MinSupport, 'g', -1, 64))
	engine := r.prm.Apriori.Engine
	if engine == "" {
		engine = countengine.Default
	}
	r.rec.SetMeta("engine", engine)
}
