package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ohminer"
	"ohminer/internal/pattern"
)

// dataSpec names one generated dataset: a paper preset, optionally scaled.
// The presets carry their own generator seeds, so a dataset is the same in
// every run (the stand-in for the paper's fixed real-world files); the
// workload seed draws everything else — patterns, request mixes, arrival
// times, retirements.
type dataSpec struct {
	tag   string
	scale float64 // 1 = the preset as published
}

func (d dataSpec) name() string {
	if d.scale == 1 {
		return d.tag
	}
	return fmt.Sprintf("%s/%g", d.tag, 1/d.scale)
}

// input is a generated dataset before the system sees it: raw hyperedge
// vertex lists, as a loader would hand them to BuildHypergraph.
type input struct {
	spec  dataSpec
	nv    int
	edges [][]uint32
	fp    uint64 // Hypergraph.Fingerprint of the generated dataset
}

func generate(d dataSpec) (input, error) {
	pr, err := ohminer.DatasetPresetByTag(d.tag)
	if err != nil {
		return input{}, err
	}
	cfg := pr.Config
	if d.scale != 1 {
		cfg.NumVertices = int(float64(cfg.NumVertices) * d.scale)
		cfg.NumEdges = int(float64(cfg.NumEdges) * d.scale)
		cfg.Communities = int(float64(cfg.Communities) * d.scale)
	}
	h, err := ohminer.GenerateDataset(cfg)
	if err != nil {
		return input{}, err
	}
	edges := make([][]uint32, h.NumEdges())
	for e := range edges {
		edges[e] = append([]uint32(nil), h.EdgeVertices(uint32(e))...)
	}
	return input{spec: d, nv: h.NumVertices(), edges: edges, fp: h.Fingerprint()}, nil
}

// dataset is a dataset after set-up: the hypergraph and its DAL store.
type dataset struct {
	name  string
	h     *ohminer.Hypergraph
	store *ohminer.Store
}

// setupTimes are the medians over the set-up repetitions.
type setupTimes struct {
	total, build, dal float64 // seconds, ms, ms
}

// buildAll runs BuildHypergraph + NewStore over every input, reps times,
// and keeps the last repetition's datasets. Repeating set-up and reporting
// the median keeps setup_s steady; input generation is not timed.
func buildAll(tr *tracer, ins []input, reps int) ([]dataset, setupTimes, error) {
	var totals, builds, dals []float64
	var out []dataset
	for r := 0; r < reps; r++ {
		out = out[:0]
		runtime.GC() // the previous repetition's garbage is not set-up work
		var tot, b, d time.Duration
		for _, in := range ins {
			trace := fmt.Sprintf("setup-%d-%s", r, in.spec.name())
			root, end := tr.begin(trace, 0, "bench.setup")
			t0 := time.Now()
			_, endB := tr.begin(trace, root, "hypergraph.BuildHypergraph")
			h, err := ohminer.BuildHypergraph(in.nv, in.edges, nil)
			endB()
			if err != nil {
				return nil, setupTimes{}, err
			}
			t1 := time.Now()
			_, endD := tr.begin(trace, root, "dal.NewStore")
			st := ohminer.NewStore(h)
			endD()
			t2 := time.Now()
			end()
			tot += t2.Sub(t0)
			b += t1.Sub(t0)
			d += t2.Sub(t1)
			out = append(out, dataset{name: in.spec.name(), h: h, store: st})
		}
		totals = append(totals, tot.Seconds())
		builds = append(builds, ms(b))
		dals = append(dals, ms(d))
	}
	return out, setupTimes{total: median(totals), build: median(builds), dal: median(dals)}, nil
}

// dalMetrics reports the DAL's size and container mix over the datasets.
func dalMetrics(r *report, ds []dataset, st setupTimes) {
	var bytes int64
	var windowed, groups int
	for _, d := range ds {
		bytes += d.store.MemoryBytes()
		c := d.store.Containers()
		windowed += c.AdjWindowed + c.EdgeWindowed
		groups += c.AdjGroups + c.EdgeSets
	}
	r.layer("hypergraph.build_ms", st.build, "ms")
	r.layer("dal.build_ms", st.dal, "ms")
	r.layer("dal.store_mb", float64(bytes)/1e6, "MB")
	r.layer("dal.bitmap_frac", ratio(float64(windowed), float64(groups)), "ratio")
}

// setting returns the Table 4 pattern setting Pk with count patterns.
func setting(k, count int) (pattern.Setting, error) {
	for _, s := range pattern.Settings() {
		if s.NumEdges == k {
			s.Count = count
			return s, nil
		}
	}
	return pattern.Setting{}, fmt.Errorf("no pattern setting P%d", k)
}

// patternSet is one seeded draw of patterns for a dataset.
type patternSet struct {
	name string // e.g. "WT P4"
	data int    // index into the workload's datasets
	pats []*ohminer.Pattern
}

// drawSets samples every (dataset, Pk, count) request from the seed; each
// set gets its own derived seed so sets do not share draws.
func drawSets(ds []dataset, seed int64, reqs []setReq) ([]patternSet, error) {
	var out []patternSet
	for i, q := range reqs {
		s, err := setting(q.k, q.count)
		if err != nil {
			return nil, err
		}
		pats, err := pattern.SampleSet(ds[q.data].h, s, seed*7919+int64(i)*104729+int64(q.k))
		if err != nil {
			return nil, err
		}
		out = append(out, patternSet{name: fmt.Sprintf("%s P%d", ds[q.data].name, q.k), data: q.data, pats: pats})
	}
	return out, nil
}

type setReq struct{ data, k, count int }

// relabel renders an isomorphic copy of p as a literal: vertex IDs are
// permuted and the hyperedge order and in-edge vertex order shuffled, so a
// cache can only hit by canonicalising.
func relabel(p *ohminer.Pattern, rng *rand.Rand) string {
	perm := rng.Perm(p.NumVertices())
	edges := p.Edges()
	order := rng.Perm(len(edges))
	var b []byte
	for i, ei := range order {
		if i > 0 {
			b = append(b, "; "...)
		}
		e := edges[ei]
		vs := make([]uint32, len(e))
		for j, v := range e {
			vs[j] = uint32(perm[v])
		}
		rng.Shuffle(len(vs), func(a, c int) { vs[a], vs[c] = vs[c], vs[a] })
		for j, v := range vs {
			if j > 0 {
				b = append(b, ' ')
			}
			b = fmt.Appendf(b, "%d", v)
		}
	}
	return string(b)
}
