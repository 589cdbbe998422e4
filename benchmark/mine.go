package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ohminer"
	"ohminer/internal/engine"
	"ohminer/internal/oig"
)

// mineBatchData are the mine-batch datasets: TC at a quarter of its bench
// scale (skewed hubs; at full scale one P3 pattern set takes longer than a
// run), WT (power-law popularity) and HB (wide dense hyperedges, the slow
// DAL build).
var mineBatchData = []dataSpec{{"TC", 0.25}, {"WT", 1}, {"HB", 1}}

// mineBatchSets are the pattern sets drawn per run: indices into
// mineBatchData, the Table 4 setting Pk, and the pattern count.
func mineBatchSets(quick bool) []setReq {
	if quick {
		return []setReq{{0, 3, 2}, {1, 3, 2}, {2, 4, 2}}
	}
	return []setReq{{0, 3, 40}, {1, 3, 20}, {1, 4, 20}, {1, 5, 20}, {2, 4, 20}, {2, 5, 20}}
}

// refCounts are the expected counts of one pattern, from a second engine
// variant.
type refCounts struct{ ordered, unique uint64 }

// reference computes every pattern's counts with OHM-V (HGMatch-style
// generation, overlap validation) — an engine path independent of the
// DAL generation the measured runs use. Not timed.
func reference(ds []dataset, sets []patternSet) ([][]refCounts, error) {
	out := make([][]refCounts, len(sets))
	for i, s := range sets {
		for j, p := range s.pats {
			res, err := ohminer.Mine(ds[s.data].store, p, ohminer.WithVariant("OHM-V"), ohminer.WithWorkers(runtime.NumCPU()))
			if err != nil {
				return nil, fmt.Errorf("reference %s #%d: %w", s.name, j, err)
			}
			out[i] = append(out[i], refCounts{res.Ordered, res.Unique})
		}
	}
	return out, nil
}

func checkResult(g *gate, what string, res ohminer.Result, err error, want refCounts) bool {
	if err != nil {
		g.note("%s: %v", what, err)
		return false
	}
	if res.Truncated {
		g.note("%s: truncated", what)
		return false
	}
	ok := g.embeddings(what+" ordered", res.Ordered, want.ordered)
	return g.embeddings(what+" unique", res.Unique, want.unique) && ok
}

func mineBatch(c *run, r *report) error {
	reps := 3
	if c.quick {
		reps = 1
	}
	var ins []input
	for _, d := range mineBatchData {
		in, err := generate(d)
		if err != nil {
			return err
		}
		ins = append(ins, in)
	}
	ds, st, err := buildAll(c.tr, ins, reps)
	if err != nil {
		return err
	}
	ins = nil
	for _, d := range ds {
		c.dataset(d)
	}
	sets, err := drawSets(ds, catalogSeed, mineBatchSets(c.quick))
	if err != nil {
		return err
	}
	order := mineOrder(sets, c.seed)
	heap := heapMB()
	logf("set-up %.2fs (median of %d)", st.total, reps)
	ref, err := reference(ds, sets)
	if err != nil {
		return err
	}
	logf("reference counts done")

	nproc := runtime.NumCPU()
	npat := 0
	for _, s := range sets {
		npat += len(s.pats)
	}
	// Closed loop, one caller: whole passes over the pattern sets until the
	// measurement time is used (at least one pass).
	var passes []float64
	var lat [][]float64 // per pass, per pattern in mining order
	var steal []time.Duration
	var stats engine.Stats
	runtime.GC()
	p0 := readProc()
	end := c.deadline()
	for len(passes) == 0 || time.Now().Before(end) {
		stats = engine.Stats{}
		lat = append(lat, nil)
		s0 := hostSteal()
		t0 := time.Now()
		for _, o := range order {
			s := sets[o.set]
			t := time.Now()
			res, err := ohminer.Mine(ds[s.data].store, s.pats[o.pat], ohminer.WithWorkers(nproc))
			lat[len(lat)-1] = append(lat[len(lat)-1], ms(time.Since(t)))
			c.g.op(checkResult(c.g, fmt.Sprintf("%s #%d", s.name, o.pat), res, err, ref[o.set][o.pat]))
			stats.Add(res.Stats)
		}
		passes = append(passes, time.Since(t0).Seconds())
		steal = append(steal, hostSteal()-s0)
	}
	p1 := readProc()
	keep := quietest(steal)
	passes, lat = pick(passes, keep), pick(lat, keep)
	mineS := median(passes)
	logf("kept passes %.3f s, median %.3fs; %s", passes, mineS, stealNote(steal, keep))
	c.st.Notes["steal"] = stealNote(steal, keep)
	r.metricE2E("setup_s", st.total, "s")
	r.metricE2E("heap_mb", heap, "MB")
	r.metricE2E("mine_s", mineS, "s")
	r.generic("setup_s", st.total)
	r.generic("heap_mb", heap)
	per := perItem(lat)
	r.generic("p50_ms", median(per))
	r.generic("tail_ms", quantile(per, 0.90))
	r.generic("ops_per_s", float64(npat)/mineS)
	c.st.Notes["tail_ms"] = fmt.Sprintf("p90 over %d patterns of each pattern's median Mine latency in %d passes", npat, len(passes))
	c.st.Notes["mine_s"] = fmt.Sprintf("median of %d passes; the slowest pattern is %.1f%% of a pass",
		len(passes), 100*quantile(per, 1)/sum(per))
	if !c.tr.on {
		return nil
	}

	dalMetrics(r, ds, st)
	procMetrics(r, p0, p1)
	schedMetrics(r, stats)
	kernelMetrics(r, stats)

	// Traced pass: the same work through the layers' own entry points —
	// compile, seed, mine — with the engine's instrumentation on.
	opts := engine.Options{Workers: nproc, Instrument: true}
	var compile, seed time.Duration
	var ops, cands int
	var inst engine.Stats
	t0 := time.Now()
	for i, s := range sets {
		store := ds[s.data].store
		for j, p := range s.pats {
			trace := fmt.Sprintf("pattern-%d-%d", i, j)
			root, endRoot := c.tr.begin(trace, 0, "bench.pattern")
			tc := time.Now()
			_, endC := c.tr.begin(trace, root, "oig.CompilePlan")
			plan, err := engine.CompilePlan(store, p, opts)
			endC()
			compile += time.Since(tc)
			if err != nil {
				endRoot()
				return fmt.Errorf("compile %s #%d: %w", s.name, j, err)
			}
			ops += planOps(plan)
			ts := time.Now()
			_, endS := c.tr.begin(trace, root, "engine.FirstCandidates")
			cands += len(engine.FirstCandidates(store, plan, opts))
			endS()
			seed += time.Since(ts)
			_, endM := c.tr.begin(trace, root, "engine.MineWithPlan")
			res, err := engine.MineWithPlan(store, plan, opts)
			endM()
			endRoot()
			c.g.op(checkResult(c.g, fmt.Sprintf("traced %s #%d", s.name, j), res, err, ref[i][j]))
			inst.Add(res.Stats)
		}
	}
	traced := time.Since(t0).Seconds()
	r.layer("trace.overhead_frac", traced/mineS-1, "ratio")
	r.layer("oig.compile_ms", ms(compile), "ms")
	r.layer("oig.plan_ops", float64(ops)/float64(npat), "count")
	r.layer("engine.seed_ms", ms(seed), "ms")
	r.layer("engine.first_candidates", float64(cands), "count")
	engineMetrics(r, inst)

	// One-worker pass for the scheduler's parallel efficiency.
	t1 := time.Now()
	for i, s := range sets {
		for j, p := range s.pats {
			res, err := ohminer.Mine(ds[s.data].store, p, ohminer.WithWorkers(1))
			c.g.op(checkResult(c.g, fmt.Sprintf("1-worker %s #%d", s.name, j), res, err, ref[i][j]))
		}
	}
	r.layer("sched.parallel_eff", time.Since(t1).Seconds()/(float64(nproc)*mineS), "ratio")
	return nil
}

// item names one pattern of a workload's catalogue.
type item struct{ set, pat int }

// mineOrder is the seeded order in which the catalogue is mined.
func mineOrder(sets []patternSet, seed int64) []item {
	var items []item
	for i, s := range sets {
		for j := range s.pats {
			items = append(items, item{i, j})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	return items
}

func planOps(p *oig.Plan) int {
	n := 0
	for _, k := range p.NumOps() {
		n += k
	}
	return n
}

func schedMetrics(r *report, s engine.Stats) {
	r.layer("sched.publishes", float64(s.Publishes), "count")
	r.layer("sched.steals", float64(s.Steals), "count")
	r.layer("sched.idle_spins", float64(s.IdleSpins), "count")
}

func kernelMetrics(r *report, s engine.Stats) {
	a, b, m := float64(s.KernelArray), float64(s.KernelBitmap), float64(s.KernelMixed)
	r.layer("intset.kernel_array", a, "count")
	r.layer("intset.kernel_bitmap", b, "count")
	r.layer("intset.kernel_mixed", m, "count")
	r.layer("intset.bitmap_share", ratio(b, a+b+m), "ratio")
}

// engineMetrics reports the generation/validation split of an
// instrumented run.
func engineMetrics(r *report, s engine.Stats) {
	r.layer("engine.gen_ms", ms(s.GenTime), "ms")
	r.layer("engine.val_ms", ms(s.ValTime), "ms")
	r.layer("engine.candidates", float64(s.Candidates), "count")
	r.layer("engine.embeddings", float64(s.Embeddings), "count")
	r.layer("engine.survivor_ratio", ratio(float64(s.Embeddings), float64(s.Candidates)), "ratio")
	r.layer("engine.setops", float64(s.SetOps), "count")
}
