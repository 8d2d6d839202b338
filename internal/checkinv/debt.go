package checkinv

import (
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// DebtEntry is one //checkinv:allow site in the suppression-debt report:
// where it is, what it suppresses, whether the last analysis needed every
// rule it names (Idle lists the ones it did not; they are stale and should
// be deleted), how old the directive line is, and the justification its
// author left.
type DebtEntry struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Rules  []string `json:"rules"`
	Used   bool     `json:"used"`
	Idle   []string `json:"idle,omitempty"`
	Age    string   `json:"age,omitempty"` // commit date of the line, best-effort via git
	Reason string   `json:"reason,omitempty"`
}

// DebtEntries converts allow sites into report entries, attributing an age
// to each via git blame when the tree is a git checkout.  Ages are
// best-effort: outside git (or for uncommitted lines) the field stays
// empty.
func DebtEntries(allows []AllowSite, modRoot string) []DebtEntry {
	out := make([]DebtEntry, 0, len(allows))
	for _, a := range allows {
		out = append(out, DebtEntry{
			File:   relTo(modRoot, a.File),
			Line:   a.Line,
			Rules:  a.Rules,
			Used:   a.Used,
			Idle:   a.Idle,
			Age:    blameDate(modRoot, a.File, a.Line),
			Reason: a.Reason,
		})
	}
	return out
}

// relTo makes path module-relative (slash form) when possible.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// blameDate returns the commit date (YYYY-MM-DD) of one line, or "".
func blameDate(modRoot, file string, line int) string {
	rel, err := filepath.Rel(modRoot, file)
	if err != nil {
		rel = file
	}
	cmd := exec.Command("git", "-C", modRoot, "blame", "-L",
		fmt.Sprintf("%d,%d", line, line), "--porcelain", "--", rel)
	data, err := cmd.Output()
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "committer-time "); ok {
			secs, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return ""
			}
			return time.Unix(secs, 0).UTC().Format("2006-01-02")
		}
	}
	return ""
}

// WriteDebt renders the suppression-debt report as text: one line per
// directive, stale sites called out with their idle rules so those can be
// deleted.
func WriteDebt(w io.Writer, entries []DebtEntry) {
	stale := 0
	for _, e := range entries {
		status := "used"
		if !e.Used {
			status = "STALE(" + strings.Join(e.Idle, ",") + ")"
			stale++
		}
		age := e.Age
		if age == "" {
			age = "uncommitted"
		}
		reason := e.Reason
		if reason == "" {
			reason = "(no reason given)"
		}
		fmt.Fprintf(w, "%s:%d\t%s\t%s\tsince %s\t%s\n",
			e.File, e.Line, strings.Join(e.Rules, ","), status, age, reason)
	}
	fmt.Fprintf(w, "%d allow site(s), %d stale\n", len(entries), stale)
}
