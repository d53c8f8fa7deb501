package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
)

// span is one timed interval at a layer boundary. Spans of one request share
// ID (the contested name, or the request index); Parent is the index of the
// narrowest span of the same ID that contains this one, -1 for a root. It is
// resolved once, when the run ends.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// maxSpans bounds the recorder's memory; spans past it are counted, not kept.
const maxSpans = 1 << 20

// recorder keeps spans in memory for a traced run. A nil recorder records
// nothing, so the untraced run executes the same client code without it.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) add(name, id string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: id, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: -1}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// durations returns the lengths of every span called name, ascending.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return sortDurations(out)
}

// resolveParents links every span to the narrowest same-ID span containing
// it. Call once, after every writer has stopped.
func (r *recorder) resolveParents() {
	byID := make(map[string][]int)
	for i, s := range r.spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	for _, idx := range byID {
		// Outer spans first: earlier start, then later end.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := r.spans[idx[a]], r.spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && r.spans[stack[len(stack)-1]].End < r.spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				r.spans[i].Parent = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}
}

// writeFile dumps the spans as JSON under os.TempDir and returns the path.
func (r *recorder) writeFile(workload string, seed int64) (string, error) {
	path := filepath.Join(os.TempDir(), fmt.Sprintf("dropbench-trace-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.dropped, r.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// budgetRow is one span name's share of the blocking path under a root.
type budgetRow struct {
	name  string
	count int
	self  time.Duration // summed over every root
}

// budgetTable divides the mean duration of the spans called root among the
// spans beneath them: a span's self time is its duration minus the part its
// children cover. The rows sum to the root's total by construction, so the
// part no child span explains is explicit, not lost.
type budgetTable struct {
	root  string
	roots int
	total time.Duration
	rows  []budgetRow
}

func (r *recorder) budget(root string) *budgetTable {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	t := &budgetTable{root: root}
	rows := make(map[string]*budgetRow)
	var walk func(i int)
	walk = func(i int) {
		s := r.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		// Union of the children's intervals, clipped to the parent.
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			ks, ke := max(r.spans[k].Start, edge), min(r.spans[k].End, s.End)
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
		}
		row := rows[s.Name]
		if row == nil {
			row = &budgetRow{name: s.Name}
			rows[s.Name] = row
		}
		row.count++
		row.self += time.Duration(s.End - s.Start - covered)
		for _, k := range kids {
			walk(k)
		}
	}
	for i, s := range r.spans {
		if s.Name == root && s.Parent < 0 {
			t.roots++
			t.total += time.Duration(s.End - s.Start)
			walk(i)
		}
	}
	for _, row := range rows {
		t.rows = append(t.rows, *row)
	}
	sort.Slice(t.rows, func(a, b int) bool { return t.rows[a].self > t.rows[b].self })
	return t
}

// unattributedSpans are spans whose self time the harness cannot divide
// further from outside the program: the root's own gaps between steps, and
// the client-side round trip minus the server-side spans inside it (socket,
// frame codec, handler, the in-memory registry call, scheduler).
var unattributedSpans = map[string]bool{"release": true, "epp.create": true, "epp.write": true, "restart": true}

// layerOf maps a span name to the module that owns its self time.
func layerOf(name string) string {
	if unattributedSpans[name] {
		return "unattributed"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// meanSelfByLayer folds the rows into mean self time per layer per root.
func (t *budgetTable) meanSelfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil || t.roots == 0 {
		return out
	}
	for _, row := range t.rows {
		out[layerOf(row.name)] += row.self / time.Duration(t.roots)
	}
	return out
}

func (t *budgetTable) print(w io.Writer) {
	if t == nil || t.roots == 0 {
		return
	}
	mean := t.total / time.Duration(t.roots)
	fmt.Fprintf(w, "  budget of %q: %d roots, mean %v; self time per span on the blocking path\n", t.root, t.roots, mean.Round(time.Microsecond))
	fmt.Fprintf(w, "    %-24s %-13s %8s %12s %7s\n", "span", "layer", "count", "mean self", "share")
	for _, row := range t.rows {
		self := row.self / time.Duration(t.roots)
		note := ""
		if unattributedSpans[row.name] {
			note = "  <- remainder: socket + handler + scheduler"
		}
		fmt.Fprintf(w, "    %-24s %-13s %8d %12v %6.1f%%%s\n", row.name, layerOf(row.name), row.count,
			self.Round(10*time.Nanosecond), 100*float64(row.self)/float64(t.total), note)
	}
}

// tracedJournal stands in for repl.SyncJournal in a traced run: the same
// three public calls (Journal.AppendMutation, the returned wait,
// Source.WaitSynced) with a span around each.
type tracedJournal struct {
	j   *journal.Journal
	s   *repl.Source
	rec *recorder
}

func (t *tracedJournal) Append(m registry.Mutation) func() error {
	t0 := time.Now()
	seq, wait := t.j.AppendMutation(m)
	t.rec.add("journal.append", m.Name, t0, time.Now())
	if wait == nil {
		return nil
	}
	return func() error {
		t1 := time.Now()
		err := wait()
		t2 := time.Now()
		t.rec.add("journal.fsync_wait", m.Name, t1, t2)
		if err != nil {
			return err
		}
		err = t.s.WaitSynced(seq)
		t.rec.add("repl.quorum_wait", m.Name, t2, time.Now())
		return err
	}
}

// tracedTap is feed.Tap with a span around Hub.Append, which runs inside the
// store's shard lock.
type tracedTap struct {
	inner registry.Journal
	hub   *feed.Hub
	rec   *recorder
}

func (t tracedTap) Append(m registry.Mutation) func() error {
	wait := t.inner.Append(m)
	t0 := time.Now()
	t.hub.Append(m)
	t.rec.add("feed.append", m.Name, t0, time.Now())
	return wait
}
