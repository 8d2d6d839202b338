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
