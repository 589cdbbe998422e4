package exp

import (
	"fmt"
	"runtime"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/hypergraph"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// The "sched" experiment measures how the work-stealing subtree scheduler
// scales: 1/2/4/8 workers on a balanced input (many first-step candidates,
// where distributing those alone would already parallelize) and on a skewed
// input (a single first-step candidate, where only subtree stealing below
// the root helps). Each row's speedup is relative to one worker on the same
// scheduler.

func init() {
	register(Experiment{
		ID:    "sched",
		Title: "Work-stealing scheduler scaling (balanced vs skewed, 1-8 workers)",
		Run:   runSched,
	})
}

// fanInput builds a hub-and-fan chain workload. Every hub hyperedge
// {5h..5h+4} (degree 5) is joined to fan A-hyperedges of degree fan+1
// through one shared vertex; each A-hyperedge fans out to fan B-hyperedges
// of degree 2 through per-pair port vertices, so B-hyperedges of different
// A's never touch. Mining the chain pattern hub→A→B yields exactly
// hubs·fan² embeddings, and with hubs == 1 every one of them hangs off a
// single first-step candidate — the worst case for first-level scheduling.
func fanInput(hubs, fan int) (*dal.Store, *oig.Plan, uint64, error) {
	ports := hubs * fan * fan
	portBase := uint32(5 * hubs)
	leafBase := portBase + uint32(ports)
	var edges [][]uint32
	for h := 0; h < hubs; h++ {
		edges = append(edges, []uint32{uint32(5 * h), uint32(5*h + 1), uint32(5*h + 2), uint32(5*h + 3), uint32(5*h + 4)})
	}
	port := func(h, i, j int) uint32 { return portBase + uint32((h*fan+i)*fan+j) }
	for h := 0; h < hubs; h++ {
		for i := 0; i < fan; i++ {
			a := []uint32{uint32(5*h + 4)}
			for j := 0; j < fan; j++ {
				a = append(a, port(h, i, j))
			}
			edges = append(edges, a)
		}
	}
	leaf := uint32(0)
	for h := 0; h < hubs; h++ {
		for i := 0; i < fan; i++ {
			for j := 0; j < fan; j++ {
				edges = append(edges, []uint32{port(h, i, j), leafBase + leaf})
				leaf++
			}
		}
	}
	hg, err := hypergraph.Build(int(leafBase)+ports, edges, nil)
	if err != nil {
		return nil, nil, 0, err
	}

	// Chain pattern hub(5) → A(fan+1) → B(2), matching order pinned to the
	// chain so the hub is always the first step.
	pe1 := []uint32{4}
	for j := 0; j < fan; j++ {
		pe1 = append(pe1, uint32(5+j))
	}
	p, err := pattern.New([][]uint32{{0, 1, 2, 3, 4}, pe1, {5, uint32(5 + fan)}}, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	plan, err := oig.CompileOrdered(p, oig.ModeMerged, []int{0, 1, 2})
	if err != nil {
		return nil, nil, 0, err
	}
	return dal.Build(hg), plan, uint64(hubs) * uint64(fan) * uint64(fan), nil
}

// minMine runs the cell `repeats` times and keeps the fastest run (standard
// benchmarking practice; the counts of every repeat must agree).
func minMine(store *dal.Store, plan *oig.Plan, opts engine.Options, repeats int) (engine.Result, error) {
	var best engine.Result
	for r := 0; r < repeats; r++ {
		res, err := engine.MineWithPlan(store, plan, opts)
		if err != nil {
			return res, err
		}
		if r == 0 || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return best, nil
}

func runSched(c *Context, opts RunOpts) ([]*Table, error) {
	type input struct {
		name string
		hubs int
		fan  int
	}
	inputs := []input{
		{name: "balanced", hubs: 8, fan: 140},
		{name: "skewed", hubs: 1, fan: 400},
	}
	repeats := 5
	if opts.Quick {
		inputs = []input{
			{name: "balanced", hubs: 8, fan: 40},
			{name: "skewed", hubs: 1, fan: 110},
		}
		repeats = 2
	}

	t := &Table{
		Title:  "Scheduler scaling: work stealing at 1/2/4/8 workers",
		Header: []string{"input", "workers", "elapsed", "speedup", "steals", "publishes"},
		Notes: []string{
			"speedup is relative to 1 worker on the same work-stealing scheduler",
			"skewed input has ONE first-step candidate; all parallelism there comes from subtree stealing",
			fmt.Sprintf("wall-clock scaling is bounded by GOMAXPROCS=%d (of %d CPUs) on this host; counts are verified identical across all cells",
				runtime.GOMAXPROCS(0), runtime.NumCPU()),
		},
	}
	for _, in := range inputs {
		store, plan, want, err := fanInput(in.hubs, in.fan)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var base time.Duration
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := minMine(store, plan, engine.Options{Workers: workers}, repeats)
			if err != nil {
				return nil, err
			}
			if res.Ordered != want {
				return nil, fmt.Errorf("sched: %s workers=%d counted %d, want %d", in.name, workers, res.Ordered, want)
			}
			if workers == 1 {
				base = res.Elapsed
			}
			t.AddRow(in.name, fmt.Sprintf("%d", workers), ms(res.Elapsed), speedup(base, res.Elapsed),
				fmt.Sprintf("%d", res.Stats.Steals), fmt.Sprintf("%d", res.Stats.Publishes))
			opts.Recorder.Record(CellRecord{
				Exp:       "sched",
				Variant:   "OHMiner",
				Dataset:   in.name,
				Pattern:   fmt.Sprintf("chain3 hubs=%d fan=%d", in.hubs, in.fan),
				Workers:   workers,
				MaxProcs:  runtime.GOMAXPROCS(0),
				ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
				Ordered:   res.Ordered,
				Truncated: res.Truncated,
				Steals:    res.Stats.Steals,
				Publishes: res.Stats.Publishes,
				IdleSpins: res.Stats.IdleSpins,
			})
		}
		progressf("    sched/%-8s 4 worker counts in %v\n", in.name, time.Since(start).Round(time.Millisecond))
	}
	return []*Table{t}, nil
}
