package exp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"ohminer/internal/engine"
	"ohminer/internal/pattern"
	"ohminer/internal/stream"
)

// The "stream" experiment is the incremental-maintenance ablation for the
// streaming subsystem: the same scripted batch feed (adds + retires over a
// seeded graph) runs on two stream miners, one maintaining its hypergraph
// and DAL incrementally (the default) and one rebuilding both from scratch
// every batch (Config.Rebuild, the differential baseline). Standing-query
// deltas and cumulative totals must agree batch-for-batch — the measured
// quantity is apply latency, where incremental maintenance should win by
// roughly the graph-size/batch-size ratio.
//
// A second table sweeps the seed graph size: the same batch shape (adds +
// retires) applied to an incremental miner seeded with e0 and with 4·e0
// edges, vertex universe scaled alike so local density is unchanged. Delta
// evaluation seeds anchor-first plans with the batch's changed edges, so
// the per-batch apply time should stay near flat as |E| grows; each size's
// final totals are checked against a from-scratch TotalCount.

func init() {
	register(Experiment{
		ID:    "stream",
		Title: "Streaming ablation: incremental derived-state maintenance vs per-batch rebuild",
		Run:   runStream,
	})
}

func runStream(c *Context, opts RunOpts) ([]*Table, error) {
	nv, initial, batches, adds, retires := 1200, 20000, 10, 200, 120
	if opts.Quick {
		nv, initial, batches, adds, retires = 600, 4000, 6, 120, 80
	}
	patterns := []string{"0 1; 1 2", "0 1; 1 2; 2 0"}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The feed is scripted up front so both variants consume identical
	// batches.
	rng := rand.New(rand.NewSource(opts.Seed + 41))
	feed := scriptStreamFeed(rng, func() []uint32 {
		v := uint32(rng.Intn(nv - 2))
		if rng.Intn(2) == 0 {
			return []uint32{v, v + 1 + uint32(rng.Intn(2))}
		}
		return []uint32{v, v + 1, v + 2}
	}, initial, batches, adds, retires)

	type variant struct {
		name    string
		rebuild bool
		apply   time.Duration
		finals  []stream.QueryInfo
		deltas  [][]stream.Delta // [batch][query]
	}
	variants := []*variant{{name: "rebuild", rebuild: true}, {name: "incremental"}}
	for _, v := range variants {
		m, err := stream.NewMiner(stream.Config{
			NumVertices: nv,
			Rebuild:     v.rebuild,
			Engine:      engine.Options{Workers: workers},
		})
		if err != nil {
			return nil, fmt.Errorf("stream: %s: %w", v.name, err)
		}
		// Seed the graph, then register the standing queries so every
		// measured batch evaluates them.
		if _, err := m.ApplyBatch(feed[0]); err != nil {
			return nil, fmt.Errorf("stream: %s: seed: %w", v.name, err)
		}
		for _, lit := range patterns {
			p, err := pattern.Parse(lit)
			if err != nil {
				return nil, fmt.Errorf("stream: pattern %q: %w", lit, err)
			}
			if _, err := m.RegisterQuery(p); err != nil {
				return nil, fmt.Errorf("stream: %s: register %q: %w", v.name, lit, err)
			}
		}
		start := time.Now()
		for _, b := range feed[1:] {
			res, err := m.ApplyBatch(b)
			if err != nil {
				return nil, fmt.Errorf("stream: %s: batch %d: %w", v.name, b.Seq, err)
			}
			ds := append([]stream.Delta(nil), res.Deltas...)
			for i := range ds {
				ds[i].ElapsedMS = 0
			}
			v.deltas = append(v.deltas, ds)
		}
		v.apply = time.Since(start)
		v.finals = m.Queries()
		progressf("    stream/%-11s %d batches in %v\n", v.name, batches, v.apply.Round(time.Millisecond))
	}

	// Differential gate: both variants must produce identical deltas for
	// every (batch, query) cell — incremental maintenance is only a win if
	// it is also exact.
	rb, inc := variants[0], variants[1]
	for bi := range rb.deltas {
		for qi := range rb.deltas[bi] {
			if rb.deltas[bi][qi] != inc.deltas[bi][qi] {
				return nil, fmt.Errorf("stream: batch %d query %d: rebuild %+v != incremental %+v",
					bi, qi, rb.deltas[bi][qi], inc.deltas[bi][qi])
			}
		}
	}

	t := &Table{
		Title:  "Streaming ablation: incremental derived-state maintenance vs per-batch rebuild",
		Header: []string{"cell", "rebuild", "incremental", "speedup"},
		Notes: []string{
			fmt.Sprintf("feed: %d seed edges, then %d batches of ~%d adds + %d retires over %d vertices", initial, batches, adds, retires, nv),
			"apply is the wall-clock total over all measured batches (derived-state maintenance + standing-query deltas)",
			"every per-batch delta and final total is verified identical across variants before timing is reported",
			"rebuild reconstructs the hypergraph and DAL from live edges each batch; incremental extends them in place",
		},
	}
	t.AddRow(fmt.Sprintf("apply Σ (B=%d)", batches), ms(rb.apply), ms(inc.apply), speedup(rb.apply, inc.apply))
	for qi, q := range inc.finals {
		if rb.finals[qi].Total != q.Total || rb.finals[qi].Unique != q.Unique {
			return nil, fmt.Errorf("stream: query %q final totals diverge: rebuild %d/%d, incremental %d/%d",
				q.Pattern, rb.finals[qi].Total, rb.finals[qi].Unique, q.Total, q.Unique)
		}
		t.AddRow("total "+q.Pattern, fmt.Sprintf("%d", rb.finals[qi].Total), fmt.Sprintf("%d", q.Total), "-")
	}
	for _, v := range variants {
		for _, q := range v.finals {
			opts.Recorder.Record(CellRecord{
				Exp:       "stream",
				Variant:   v.name,
				Dataset:   fmt.Sprintf("synthetic-stream nv=%d e0=%d", nv, initial),
				Pattern:   q.Pattern,
				Workers:   workers,
				MaxProcs:  runtime.GOMAXPROCS(0),
				ElapsedMs: float64(v.apply) / float64(time.Millisecond),
				Ordered:   q.Total,
				Unique:    q.Unique,
			})
		}
	}
	sweep, err := streamSweep(opts, workers, patterns)
	if err != nil {
		return nil, err
	}
	return []*Table{t, sweep}, nil
}

// scriptStreamFeed scripts a seeding batch of `initial` draws, then
// `batches` batches of `retires` retirements and `adds` add draws. Retires
// are drawn from the edges live before the batch, so they are valid
// regardless of apply-order semantics, and always name a currently-live
// edge exactly once; duplicate draws of a live edge are dropped (the miner
// would treat them as refreshes, desynchronizing this bookkeeping from its
// live set).
func scriptStreamFeed(rng *rand.Rand, edge func() []uint32, initial, batches, adds, retires int) []stream.Batch {
	live := map[string][]uint32{}
	liveKeys := []string{}
	addFresh := func(batch *stream.Batch, n int) {
		for i := 0; i < n; i++ {
			e := edge()
			k := fmt.Sprint(e)
			if _, ok := live[k]; ok {
				continue
			}
			batch.Add = append(batch.Add, e)
			live[k] = e
			liveKeys = append(liveKeys, k)
		}
	}
	feed := make([]stream.Batch, 0, batches+1)
	seed := stream.Batch{Seq: 1}
	addFresh(&seed, initial)
	feed = append(feed, seed)
	for b := 0; b < batches; b++ {
		batch := stream.Batch{Seq: uint64(b + 2)}
		for i := 0; i < retires && len(liveKeys) > 0; i++ {
			j := rng.Intn(len(liveKeys))
			k := liveKeys[j]
			batch.Retire = append(batch.Retire, live[k])
			delete(live, k)
			liveKeys[j] = liveKeys[len(liveKeys)-1]
			liveKeys = liveKeys[:len(liveKeys)-1]
		}
		addFresh(&batch, adds)
		feed = append(feed, batch)
	}
	return feed
}

// streamSweep applies one batch shape to incremental miners seeded at e0
// and 4·e0 edges and reports the median per-batch apply time of each.
func streamSweep(opts RunOpts, workers int, patterns []string) (*Table, error) {
	e0, batches, adds, retires := 20000, 10, 200, 120
	if opts.Quick {
		e0, batches = 4000, 6
	}
	t := &Table{
		Title:  "Streaming |E| sweep: per-batch apply time at a fixed batch size",
		Header: []string{"seed edges", "vertices", "live edges", "apply/batch p50", "vs e0", "eval/batch p50", "vs e0"},
		Notes: []string{
			fmt.Sprintf("each size: %d batches of %d adds + %d retires, incremental maintenance, queries %s", batches, adds, retires, strings.Join(patterns, " | ")),
			"vertices scale with the seed size, so a changed edge's neighbourhood is the same at both sizes",
			"apply is one ApplyBatch: derived-state maintenance + every standing query's anchored delta; eval is the delta part alone",
			"final totals are verified against a from-scratch TotalCount before timing is reported",
		},
	}
	var base, baseEval time.Duration
	for _, scale := range []int{1, 4} {
		initial, nv := scale*e0, scale*e0/2
		// Same seed at both sizes: the feeds differ only in scale.
		rng := rand.New(rand.NewSource(opts.Seed + 43))
		feed := scriptStreamFeed(rng, func() []uint32 {
			v := uint32(rng.Intn(nv - 3))
			if rng.Intn(2) == 0 {
				return []uint32{v, v + 1 + uint32(rng.Intn(3))}
			}
			return []uint32{v, v + 1, v + 2 + uint32(rng.Intn(2))}
		}, initial, batches, adds, retires)
		m, err := stream.NewMiner(stream.Config{NumVertices: nv, Engine: engine.Options{Workers: workers}})
		if err != nil {
			return nil, err
		}
		if _, err := m.ApplyBatch(feed[0]); err != nil {
			return nil, fmt.Errorf("stream sweep: seed: %w", err)
		}
		pats := make([]*pattern.Pattern, len(patterns))
		for i, lit := range patterns {
			if pats[i], err = pattern.Parse(lit); err != nil {
				return nil, err
			}
			if _, err := m.RegisterQuery(pats[i]); err != nil {
				return nil, fmt.Errorf("stream sweep: register %q: %w", lit, err)
			}
		}
		per := make([]time.Duration, 0, batches)
		evals := make([]time.Duration, 0, batches)
		for _, b := range feed[1:] {
			start := time.Now()
			res, err := m.ApplyBatch(b)
			if err != nil {
				return nil, fmt.Errorf("stream sweep: batch %d: %w", b.Seq, err)
			}
			per = append(per, time.Since(start))
			var eval float64
			for _, d := range res.Deltas {
				eval += d.ElapsedMS
			}
			evals = append(evals, time.Duration(eval*float64(time.Millisecond)))
		}
		slices.Sort(per)
		slices.Sort(evals)
		apply, eval := per[len(per)/2], evals[len(evals)/2]
		if scale == 1 {
			base, baseEval = apply, eval
		}
		variant := fmt.Sprintf("sweep-%de0", scale)
		progressf("    stream/%-11s %d edges: %v per batch\n", variant, initial, apply.Round(time.Microsecond))
		for i, q := range m.Queries() {
			full, err := m.TotalCount(pats[i])
			if err != nil {
				return nil, err
			}
			if full.Ordered != q.Total {
				return nil, fmt.Errorf("stream sweep: %s query %q: streamed total %d, from scratch %d",
					variant, q.Pattern, q.Total, full.Ordered)
			}
			opts.Recorder.Record(CellRecord{
				Exp:       "stream",
				Variant:   variant,
				Dataset:   fmt.Sprintf("synthetic-stream nv=%d e0=%d", nv, initial),
				Pattern:   q.Pattern,
				Workers:   workers,
				MaxProcs:  runtime.GOMAXPROCS(0),
				ElapsedMs: float64(apply) / float64(time.Millisecond),
				Ordered:   q.Total,
				Unique:    q.Unique,
			})
		}
		t.AddRow(fmt.Sprintf("%d", initial), fmt.Sprintf("%d", nv), fmt.Sprintf("%d", m.LiveEdges()),
			ms(apply), fmt.Sprintf("%.2fx", float64(apply)/float64(base)),
			ms(eval), fmt.Sprintf("%.2fx", float64(eval)/float64(baseEval)))
	}
	return t, nil
}
