package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
// Name is "<layer>.<call>"; Trace is shared by every span of one request,
// batch, job or pattern; Parent is the enclosing span (0 at the root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func noop() {}

// begin opens a span and returns its ID with the function that closes it.
func (t *tracer) begin(trace string, parent int64, name string) (int64, func()) {
	if !t.on {
		return 0, noop
	}
	id := t.next.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
			Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in ms: every span's duration
// minus the part of its interval covered by its children (overlapping
// children, e.g. parallel requests, are counted once).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		curLo, curHi := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write dumps the spans, with the run's stamp, as JSON.
func (t *tracer) write(path string, st stamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
