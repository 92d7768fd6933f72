package build

import (
	"fmt"
	"io"
)

// Counts tallies node outcomes across the build (parse records count as
// built work: a parse only happens when some consumer missed the cache).
type Counts struct {
	Built    int
	MemHits  int
	DiskHits int
	Skipped  int
	Failed   int
}

// Counts summarises the node reports.
func (r *Result) Counts() Counts {
	var c Counts
	for _, n := range r.Nodes {
		switch n.Status {
		case StatusBuilt:
			c.Built++
		case StatusMemHit:
			c.MemHits++
		case StatusDiskHit:
			c.DiskHits++
		case StatusSkipped:
			c.Skipped++
		case StatusFailed:
			c.Failed++
		}
	}
	return c
}

// AllCached reports whether the build did no stage work at all — every
// node was served from the memory or disk cache.
func (r *Result) AllCached() bool {
	c := r.Counts()
	return c.Built == 0 && c.Failed == 0 && c.Skipped == 0
}

// Summary is the one-line cache report, greppable by CI gates:
//
//	graph: 14 nodes  built=2 mem=0 disk=12 skipped=0 failed=0
func (r *Result) Summary() string {
	c := r.Counts()
	return fmt.Sprintf("graph: %d nodes  built=%d mem=%d disk=%d skipped=%d failed=%d",
		len(r.Nodes), c.Built, c.MemHits, c.DiskHits, c.Skipped, c.Failed)
}

// Explain writes the per-node hit/miss/rebuild report followed by the
// summary line — the -explain output of tesla-build and tesla-run.
func (r *Result) Explain(w io.Writer) {
	for _, n := range r.Nodes {
		key := n.Key
		if len(key) > 12 {
			key = key[:12]
		}
		switch {
		case n.Err != nil && n.Status == StatusFailed:
			fmt.Fprintf(w, "%-28s %-11s %s\n", n.ID, n.Status, n.Err)
		case key != "":
			fmt.Fprintf(w, "%-28s %-11s %s\n", n.ID, n.Status, key)
		default:
			fmt.Fprintf(w, "%-28s %s\n", n.ID, n.Status)
		}
	}
	fmt.Fprintln(w, r.Summary())
}
