package obsv

import (
	"fmt"
	"io"
	"strings"
)

// glyphForCat maps leaf slice categories to their timeline glyphs.
var glyphForCat = map[string]byte{
	CatCompute: '#',
	CatSend:    '>',
	CatIO:      'o',
	CatIdle:    '.',
	CatRetry:   'r',
	CatDrop:    'x',
}

// WriteTimeline renders a trace's leaf slices as a text Gantt chart: one row
// per rank, `width` columns spanning [0, horizon] on the trace's clock.
// Structural spans (run/pass/section/request/publish) are skipped — they
// enclose the slices and would paint over them.  Later-starting slices win
// ties for a cell, which makes waits visible at the tail of each pass.
func WriteTimeline(w io.Writer, t *Trace, width int) error {
	if width < 20 {
		width = 20
	}
	ranks := t.Ranks()
	horizon := 0.0
	for _, s := range t.Spans {
		if glyphForCat[s.Cat] != 0 && s.End > horizon {
			horizon = s.End
		}
	}
	if ranks == 0 || horizon == 0 {
		_, err := io.WriteString(w, "(no slice spans)\n")
		return err
	}
	rows := make([][]byte, ranks)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range t.Spans {
		g := glyphForCat[s.Cat]
		if g == 0 || s.Rank < 0 || s.Rank >= ranks {
			continue
		}
		lo := int(s.Start / horizon * float64(width-1))
		hi := int(s.End / horizon * float64(width-1))
		for c := lo; c <= hi && c < width; c++ {
			rows[s.Rank][c] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s time 0 .. %.6fs   (# compute, > send, o io, . idle, r retry, x drop)\n",
		t.Clock, horizon)
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-3d |%s|\n", i, row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
