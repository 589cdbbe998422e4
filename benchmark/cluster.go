package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ohminer"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
)

const (
	// clusterWorkers is the number of in-process workers; each mines with
	// one engine thread, so the cluster uses nproc threads like the library
	// runs.
	clusterWorkers = 2
	// clusterParts splits each job into two leases per worker. With the
	// coordinator's default of 16, the fsync behind each grant and report
	// (about 35 per job) dominated a job, and on a 2-vCPU VM's virtual disk
	// fsync latency moved fourfold within minutes.
	clusterParts = 2 * clusterWorkers
)

// clusterRig is a durable coordinator on loopback with in-process workers.
type clusterRig struct {
	coord   *cluster.Coordinator
	lb      *loopback
	workers []*cluster.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	dir     string
}

func startCluster(c *run, store *ohminer.Store, rep int) (*clusterRig, error) {
	dir := filepath.Join(c.tmp, fmt.Sprintf("cluster-%d", rep))
	coord, err := cluster.New(store, cluster.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	lb, err := listen(mux)
	if err != nil {
		coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &clusterRig{coord: coord, lb: lb, cancel: cancel, dir: dir}
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: lb.url,
			Name:        fmt.Sprintf("w%d", i),
			Store:       store,
			Client:      newClient(1),
			Poll:        2 * time.Millisecond,
			Engine:      engine.Options{Workers: 1},
		})
		if err != nil {
			g.stop()
			return nil, err
		}
		g.workers = append(g.workers, w)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			_ = w.Run(ctx) // returns ctx's error on the shutdown below
		}()
	}
	return g, nil
}

// stop drains the workers, then the server and the coordinator's WAL.
func (g *clusterRig) stop() {
	g.cancel()
	g.wg.Wait()
	_ = g.lb.stop()     // best effort at the end of a run
	_ = g.coord.Close() // likewise
}

func (g *clusterRig) counters() (leases, partial, lost, fenced uint64) {
	for _, w := range g.workers {
		leases += w.Leases()
		partial += w.Partial()
		lost += w.Lost()
		fenced += w.Fenced()
	}
	return
}

// runJob starts one job and polls until it finishes.
func (g *clusterRig) runJob(c *run, trace string, p *ohminer.Pattern) (cluster.JobStatus, error) {
	root, endRoot := c.tr.begin(trace, 0, "bench.job")
	defer endRoot()
	_, end := c.tr.begin(trace, root, "cluster.StartJob")
	st, err := g.coord.StartJob("", cluster.JobSpec{Pattern: p.String(), Parts: clusterParts})
	end()
	if err != nil {
		return st, err
	}
	_, end = c.tr.begin(trace, root, "cluster.JobStatusByID wait")
	defer end()
	deadline := time.Now().Add(60 * time.Second)
	for st.State == "running" {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s: still running after 60s", st.ID)
		}
		time.Sleep(time.Millisecond)
		var ok bool
		if st, ok = g.coord.JobStatusByID(st.ID); !ok {
			return st, fmt.Errorf("job vanished")
		}
	}
	if st.State != "done" {
		return st, fmt.Errorf("job %s: %s %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

func clusterJob(c *run, r *report) error {
	reps := 7 // set-up is short, so more repetitions keep its median steady
	if c.quick {
		reps = 1
	}
	in, err := generate(mineBatchData[0])
	if err != nil {
		return err
	}
	// Set-up: hypergraph, DAL, durable coordinator on loopback, workers.
	var setups, builds, dals []float64
	var ds dataset
	var rig *clusterRig
	for rep := 0; rep < reps; rep++ {
		if rig != nil {
			rig.stop()
		}
		dd, st, err := buildAll(c.tr, []input{in}, 1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ds = dd[0]
		if rig, err = startCluster(c, ds.store, rep); err != nil {
			return err
		}
		setups = append(setups, st.total+time.Since(t0).Seconds())
		builds = append(builds, st.build)
		dals = append(dals, st.dal)
	}
	defer func() { rig.stop() }()
	st := setupTimes{total: median(setups), build: median(builds), dal: median(dals)}
	in = input{}
	c.dataset(ds)
	heap := heapMB()
	logf("set-up %.2fs", st.total)

	// The mine-batch TC P3 catalogue, so jobs_s compares with the library
	// cost of the same patterns.
	reqs := mineBatchSets(c.quick)[:1]
	sets, err := drawSets([]dataset{ds}, catalogSeed, reqs)
	if err != nil {
		return err
	}
	pats := sets[0].pats
	order := mineOrder(sets, c.seed)
	want := make([]refCounts, len(pats))
	t0 := time.Now()
	for i, p := range pats {
		res, err := ohminer.Mine(ds.store, p, ohminer.WithWorkers(runtime.NumCPU()))
		if err != nil {
			return err
		}
		want[i] = refCounts{res.Ordered, res.Unique}
	}
	libS := time.Since(t0).Seconds()

	// Each pass runs on a fresh coordinator: the state snapshot rewritten at
	// every job completion holds every finished job, so on one long-lived
	// coordinator each pass would be slower than the last.
	var leases, partial, lost, fenced uint64
	var walRecords, walBytes []float64
	pass := func(tag string) (float64, []float64, error) {
		if tag != "pass0" {
			rig.stop()
			var err error
			if rig, err = startCluster(c, ds.store, reps+len(walRecords)); err != nil {
				return 0, nil, err
			}
		}
		var lat []float64
		t0 := time.Now()
		for _, o := range order {
			t := time.Now()
			js, err := rig.runJob(c, fmt.Sprintf("%s-job-%d", tag, o.pat), pats[o.pat])
			lat = append(lat, ms(time.Since(t)))
			ok := err == nil
			if err != nil {
				c.g.note("job %d: %v", o.pat, err)
			} else {
				ok = c.g.embeddings(fmt.Sprintf("job %s ordered", js.ID), js.Ordered, want[o.pat].ordered)
				ok = c.g.embeddings(fmt.Sprintf("job %s unique", js.ID), js.Unique, want[o.pat].unique) && ok
			}
			c.g.op(ok)
		}
		elapsed := time.Since(t0).Seconds()
		l, pa, lo, f := rig.counters()
		leases, partial, lost, fenced = leases+l, partial+pa, lost+lo, fenced+f
		cs := rig.coord.Status()
		walRecords = append(walRecords, float64(cs.WALRecords))
		walBytes = append(walBytes, float64(cs.WALBytes))
		return elapsed, lat, nil
	}
	traced := c.tr.on
	c.tr.on = false
	var passes []float64
	var lat [][]float64 // per pass, per job in sequence order
	var steal []time.Duration
	p0 := readProc()
	end := c.deadline()
	for len(passes) == 0 || time.Now().Before(end) {
		s0 := hostSteal()
		s, l, err := pass(fmt.Sprintf("pass%d", len(passes)))
		if err != nil {
			return err
		}
		passes = append(passes, s)
		lat = append(lat, l)
		steal = append(steal, hostSteal()-s0)
	}
	p1 := readProc()
	keep := quietest(steal)
	passes, lat = pick(passes, keep), pick(lat, keep)
	jobsS := median(passes)
	logf("kept passes %.3f s, median %.3fs (library %.3fs); %s", passes, jobsS, libS, stealNote(steal, keep))
	c.st.Notes["steal"] = stealNote(steal, keep)

	r.metricE2E("setup_s", st.total, "s")
	r.metricE2E("heap_mb", heap, "MB")
	r.metricE2E("jobs_s", jobsS, "s")
	r.generic("setup_s", st.total)
	r.generic("heap_mb", heap)
	per := perItem(lat)
	r.generic("p50_ms", median(per))
	r.generic("tail_ms", quantile(per, 0.75)) // p75: ten of the 40 jobs lie beyond it
	r.generic("ops_per_s", float64(len(pats))/jobsS)
	c.st.Notes["tail_ms"] = fmt.Sprintf("p75 over %d jobs of each job's median latency in %d passes", len(pats), len(passes))
	c.st.Notes["cluster"] = fmt.Sprintf("durable coordinator, %d workers x 1 engine thread, %d jobs per pass", clusterWorkers, len(pats))
	if !traced {
		return nil
	}
	c.tr.on = true

	dalMetrics(r, []dataset{ds}, st)
	procMetrics(r, p0, p1)
	r.layer("cluster.leases", float64(leases), "count")
	r.layer("cluster.partial", float64(partial), "count")
	r.layer("cluster.lost", float64(lost), "count")
	r.layer("cluster.fenced", float64(fenced), "count")
	r.layer("cluster.wal_records", median(walRecords), "count")
	r.layer("cluster.wal_bytes", median(walBytes), "bytes")
	r.layer("cluster.overhead_ratio", jobsS/libS, "ratio")
	var seed time.Duration
	var cands int
	for i, p := range pats {
		trace := fmt.Sprintf("seed-%d", i)
		_, end := c.tr.begin(trace, 0, "oig.CompilePlan")
		plan, err := engine.CompilePlan(ds.store, p, engine.Options{})
		end()
		if err != nil {
			return err
		}
		t := time.Now()
		_, end = c.tr.begin(trace, 0, "engine.FirstCandidates")
		cands += len(engine.FirstCandidates(ds.store, plan, engine.Options{}))
		end()
		seed += time.Since(t)
	}
	r.layer("engine.seed_ms", ms(seed), "ms")
	r.layer("engine.first_candidates", float64(cands), "count")

	// Tracing overhead: one more pass with spans on every job.
	tracedS, _, err := pass("traced")
	if err != nil {
		return err
	}
	r.layer("trace.overhead_frac", tracedS/jobsS-1, "ratio")
	return nil
}
