package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ohminer"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
	"ohminer/internal/serve"
)

// serve-mix load shape.
const (
	serveRefRate = 150.0 // req/s: the reference rate query latency is reported at
	satPerSecond = 700   // saturation requests per second of run time
	satMax       = 14000 // saturation requests at most: 10% are fresh, and WT has ~1550 P2 classes
	serveRounds  = 20    // reference segments, each followed by a saturation block
	serveLimit   = 500   // embedding limit of the "limit" share
	hotShare     = 0.70
	limitShare   = 0.20 // the rest (0.10) is fresh
	zipfS        = 1.1
)

const (
	kindHot = iota
	kindLimit
	kindFresh
)

type query struct {
	kind int
	idx  int // pool index (hot, limit) or fresh index
	lit  string
}

// serveSegment is one open-loop segment: requests and their send times.
type serveSegment struct {
	qs []query
	at []time.Duration
}

type queryResult struct {
	sched, sent, wrote, done time.Duration // since the phase start
	status                   int
	resp                     serve.QueryResponse
	err                      error
}

func (q queryResult) latency() float64 { return ms(q.done - q.sched) }

// mixGen builds the request mix. The catalogue seed fixes the hot pool and
// the sequence of fresh patterns; the run seed fixes the request order, the
// relabellings and the arrival times. Every block of requests holds each
// kind, and each pool pattern, in its exact expected share (stratified Zipf
// quantiles): with independent draws, how often the few pool patterns whose
// limit queries mine for 10-20 ms came up decided the p99, which moved from
// 3.4 to 11.6 ms across ten seeds.
type mixGen struct {
	rng    *rand.Rand // run seed
	catRng *rand.Rand // catalogue seed: fresh patterns
	h      *ohminer.Hypergraph
	pool   []*ohminer.Pattern
	cdf    []float64       // Zipf(s) over pool ranks
	seen   map[string]bool // isomorphism classes drawn so far
	fresh  []*ohminer.Pattern
}

func newMixGen(h *ohminer.Hypergraph, pool []*ohminer.Pattern, seen map[string]bool, catRng, rng *rand.Rand) *mixGen {
	m := &mixGen{rng: rng, catRng: catRng, h: h, pool: pool, seen: seen}
	total := 0.0
	for i := range pool {
		total += math.Pow(float64(i+1), -zipfS)
		m.cdf = append(m.cdf, total)
	}
	for i := range m.cdf {
		m.cdf[i] /= total
	}
	return m
}

// poolIndex is the pool rank at Zipf quantile u.
func (m *mixGen) poolIndex(u float64) int {
	return min(sort.SearchFloat64s(m.cdf, u), len(m.pool)-1)
}

// newFresh draws a pattern of a class never drawn before: a P2 over a wider
// vertex range than Table 4's P2 (5-15), which has too few classes on WT
// to keep a run supplied. Fresh P3 patterns made the p99 swing by half
// between seeds: a few heavy ones decided it.
func (m *mixGen) newFresh() (*ohminer.Pattern, error) {
	ps, err := distinctPatterns(1, m.seen, func(int) (*ohminer.Pattern, error) {
		return pattern.Sample(m.h, 2, 3, 40, m.catRng)
	})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// block returns n requests in the mix's shares, in a seeded order, each a
// freshly relabelled literal.
func (m *mixGen) block(n int) ([]query, error) {
	nHot := int(math.Round(float64(n) * hotShare))
	nLimit := int(math.Round(float64(n) * limitShare))
	var qs []query
	for k := 0; k < nHot; k++ {
		qs = append(qs, query{kind: kindHot, idx: m.poolIndex((float64(k) + 0.5) / float64(nHot))})
	}
	for k := 0; k < nLimit; k++ {
		qs = append(qs, query{kind: kindLimit, idx: m.poolIndex((float64(k) + 0.5) / float64(nLimit))})
	}
	for k := nHot + nLimit; k < n; k++ {
		p, err := m.newFresh()
		if err != nil {
			return nil, err
		}
		m.fresh = append(m.fresh, p)
		qs = append(qs, query{kind: kindFresh, idx: len(m.fresh) - 1})
	}
	m.rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
	for i := range qs {
		p := m.pool
		if qs[i].kind == kindFresh {
			p = m.fresh
		}
		qs[i].lit = relabel(p[qs[i].idx], m.rng)
	}
	return qs, nil
}

// schedule returns a block of rate×dur requests with Poisson arrivals over
// dur, in segments consecutive parts: a Poisson process given its count
// places the arrivals uniformly. The block is drawn whole, so each segment
// holds a share of the full mix, rare classes included.
func (m *mixGen) schedule(rate float64, dur time.Duration, segments int) ([]serveSegment, error) {
	qs, err := m.block(int(math.Round(rate * dur.Seconds())))
	if err != nil {
		return nil, err
	}
	out := make([]serveSegment, segments)
	for i := range out {
		seg := &out[i]
		seg.qs = qs[i*len(qs)/segments : (i+1)*len(qs)/segments]
		seg.at = make([]time.Duration, len(seg.qs))
		for j := range seg.at {
			seg.at[j] = time.Duration(m.rng.Float64() * float64(dur) / float64(segments))
		}
		sort.Slice(seg.at, func(a, b int) bool { return seg.at[a] < seg.at[b] })
	}
	return out, nil
}

// distinctPatterns draws n patterns whose isomorphism classes are not in
// seen, adding each class to seen; draw(i) samples a candidate for slot i.
func distinctPatterns(n int, seen map[string]bool, draw func(i int) (*ohminer.Pattern, error)) ([]*ohminer.Pattern, error) {
	var out []*ohminer.Pattern
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("found only %d distinct pattern classes, need %d", len(out), n)
		}
		p, err := draw(len(out))
		if err != nil {
			return nil, err
		}
		key, _ := pattern.CanonicalKey(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
		tries = 0
	}
	return out, nil
}

// phaseResult is one phase of requests: open loop at a fixed offered rate,
// or closed loop.
type phaseResult struct {
	qs          []query
	res         []queryResult
	outstanding int64         // open loop: requests still in flight when the last one was sent
	wall        time.Duration // closed loop: until the last answer
}

// openLoop sends qs at their scheduled times, each request on its own
// goroutine, over a client with at most nproc connections.
func openLoop(c *run, client *http.Client, url string, qs []query, at []time.Duration) phaseResult {
	pr := phaseResult{qs: qs, res: make([]queryResult, len(qs))}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range qs {
		if d := time.Until(start.Add(at[i])); d > 0 {
			time.Sleep(d)
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			pr.res[i] = postQuery(c, client, url, start, at[i], qs[i], i)
		}(i)
	}
	pr.outstanding = inflight.Load()
	wg.Wait()
	return pr
}

// closedLoop runs conns clients that each send the next request of qs as
// soon as their previous one is answered, until every request is answered.
func closedLoop(c *run, client *http.Client, url string, qs []query, conns int) phaseResult {
	pr := phaseResult{qs: qs, res: make([]queryResult, len(qs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
				pr.res[i] = postQuery(c, client, url, start, time.Since(start), qs[i], i)
			}
		}()
	}
	wg.Wait()
	pr.wall = time.Since(start)
	return pr
}

func postQuery(c *run, client *http.Client, url string, start time.Time, sched time.Duration, q query, i int) queryResult {
	r := queryResult{sched: sched, sent: time.Since(start)}
	trace := fmt.Sprintf("query-%d-%d", int(sched), i)
	root, endRoot := c.tr.begin(trace, 0, "bench.query")
	defer endRoot()
	req := serve.QueryRequest{Pattern: q.lit}
	if q.kind == kindLimit {
		req.Limit = serveLimit
	}
	body, _ := json.Marshal(req) // a struct of strings and numbers
	hreq, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	hreq = hreq.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { r.wrote = time.Since(start) },
	}))
	_, endQ := c.tr.begin(trace, root, "serve.POST /query")
	resp, err := client.Do(hreq)
	if err == nil {
		r.status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&r.resp)
		resp.Body.Close()
	}
	endQ()
	r.done = time.Since(start)
	r.err = err
	return r
}

func serveMix(c *run, r *report) error {
	nproc := runtime.NumCPU()
	reps, poolN := 5, 60
	if c.quick {
		reps, poolN = 1, 6
	}
	in, err := generate(dataSpec{"WT", 1})
	if err != nil {
		return err
	}
	// Set-up: hypergraph, DAL, and two sessions each behind a listening
	// server: one takes the reference-rate requests, the other the
	// saturation blocks. Each server's fresh patterns need only be new to
	// it, which doubles the supply: WT has about 1550 P2 classes.
	var setups, builds, dals []float64
	var ds dataset
	var sess, satSess *ohminer.Session
	var lb, satLB *loopback
	for rep := 0; rep < reps; rep++ {
		for _, l := range []*loopback{lb, satLB} {
			if l != nil {
				if err := l.stop(); err != nil {
					return err
				}
			}
		}
		dd, st, err := buildAll(c.tr, []input{in}, 1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ds = dd[0]
		sess, satSess = ohminer.NewSession(ds.store), ohminer.NewSession(ds.store)
		if lb, err = listen(serve.New(sess, serve.Config{Workers: 1}).Handler()); err != nil {
			return err
		}
		if satLB, err = listen(serve.New(satSess, serve.Config{Workers: 1}).Handler()); err != nil {
			return err
		}
		setups = append(setups, st.total+time.Since(t0).Seconds())
		builds = append(builds, st.build)
		dals = append(dals, st.dal)
	}
	defer lb.stop()
	defer satLB.stop()
	st := setupTimes{total: median(setups), build: median(builds), dal: median(dals)}
	in = input{}
	c.dataset(ds)
	heap := heapMB()
	logf("set-up %.2fs", st.total)

	// The hot pool and the fresh patterns come from the catalogue seed, the
	// pool in Zipf rank order: limit queries on a pattern with fewer
	// embeddings than the limit mine it fully, and when the run seed drew
	// the pool, whichever expensive pattern ranked high decided the p99.
	catRng := rand.New(rand.NewSource(catalogSeed))
	seen := map[string]bool{}
	pool, err := distinctPatterns(poolN, seen, func(i int) (*ohminer.Pattern, error) {
		st, err := setting(2+i%2, 1)
		if err != nil {
			return nil, err
		}
		return pattern.Sample(ds.h, st.NumEdges, st.VertMin, st.VertMax, catRng)
	})
	if err != nil {
		return err
	}
	satSeen := map[string]bool{}
	for k := range seen {
		satSeen[k] = true
	}
	rng := rand.New(rand.NewSource(c.seed))
	durRef := time.Duration(c.seconds * float64(time.Second))
	mix := newMixGen(ds.h, pool, seen, catRng, rng)
	satMix := newMixGen(ds.h, pool, satSeen, rand.New(rand.NewSource(catalogSeed+1)), rng)
	// Every request is planned, and every count it must return is known,
	// before timing starts. The run alternates reference segments with
	// saturation blocks, so both sample the whole run: on a 2-vCPU VM the
	// completed rate of one saturation block moved between 2400 and 8700
	// req/s within a run.
	rounds := serveRounds
	if c.quick {
		rounds = 2
	}
	segs, err := mix.schedule(serveRefRate, durRef, rounds)
	if err != nil {
		return err
	}
	satQs, err := satMix.block(int(math.Round(min(c.seconds*satPerSecond, satMax))))
	if err != nil {
		return err
	}
	var full, fresh, satFresh []refCounts
	if full, err = libraryCounts(ds.store, pool); err != nil {
		return err
	}
	if fresh, err = libraryCounts(ds.store, mix.fresh); err != nil {
		return err
	}
	if satFresh, err = libraryCounts(ds.store, satMix.fresh); err != nil {
		return err
	}
	client := newClient(nproc)
	defer client.CloseIdleConnections()

	// The timed phases run untraced; a traced run repeats the reference
	// phase with spans at the end.
	traced := c.tr.on
	c.tr.on = false

	// Warm both servers' plan and result caches with every hot pattern,
	// closed loop.
	for _, url := range []string{lb.url, satLB.url} {
		for i, p := range pool {
			q := query{kind: kindHot, idx: i, lit: relabel(p, rng)}
			res := postQuery(c, client, url, time.Now(), 0, q, i)
			c.g.op(checkQuery(c.g, q, res, full, fresh))
		}
	}

	// Reference rate and saturation, after collecting the reference
	// counts' garbage. In saturation nproc closed-loop clients send the same
	// mix back to back; each block's completed requests per wall-clock
	// second is a rate the server sustained. max_rate_rps (ops_per_s) is
	// the upper quartile of the blocks' rates: on a 2-vCPU VM shared with
	// other tenants, blocks of one run moved between 2400 and 8700 req/s,
	// and the rate of all blocks together by 20-30% across five seeds, the
	// upper quartile by 7-15%.
	runtime.GC()
	h0, m0 := sess.CacheStats()
	rh0, rm0 := sess.ResultCacheStats()
	v0, err := expvarMap(client, lb.url, "ohmserve")
	if err != nil {
		return err
	}
	p0 := readProc()
	// One round is an open-loop segment and the saturation block after it.
	type round struct{ open, sat phaseResult }
	var rds []round
	var steal []time.Duration
	for i, seg := range segs {
		s0 := hostSteal()
		rd := round{open: openLoop(c, client, lb.url, seg.qs, seg.at)}
		rd.sat = closedLoop(c, client, satLB.url, satQs[i*len(satQs)/rounds:(i+1)*len(satQs)/rounds], nproc)
		steal = append(steal, hostSteal()-s0)
		rds = append(rds, rd)
		// Count gate: every response against the library count.
		for j, q := range rd.open.qs {
			c.g.op(checkQuery(c.g, q, rd.open.res[j], full, fresh))
		}
		for j, q := range rd.sat.qs {
			c.g.op(checkQuery(c.g, q, rd.sat.res[j], full, satFresh))
		}
	}
	// Query latency is taken over the quiet half of the rounds (least host
	// steal); the class latencies of tail_ms and the saturation rates over
	// every round, as they discount stalls themselves.
	keep := quietest(steal)
	var ref, all phaseResult
	for _, rd := range pick(rds, keep) {
		ref.qs = append(ref.qs, rd.open.qs...)
		ref.res = append(ref.res, rd.open.res...)
		ref.outstanding = max(ref.outstanding, rd.open.outstanding)
	}
	var satRates []float64
	satDone := 0
	for _, rd := range rds {
		all.qs = append(all.qs, rd.open.qs...)
		all.res = append(all.res, rd.open.res...)
		satDone += completed(rd.sat)
		satRates = append(satRates, float64(completed(rd.sat))/rd.sat.wall.Seconds())
	}
	c.st.Notes["steal"] = stealNote(steal, keep)
	p1 := readProc()
	h1, m1 := sess.CacheStats()
	rh1, rm1 := sess.ResultCacheStats()
	v1, err := expvarMap(client, lb.url, "ohmserve")
	if err != nil {
		return err
	}
	maxRate := quantile(satRates, 0.75)
	logf("reference rate: %d requests, at most %d outstanding at a segment's end; saturation: %d requests, blocks at %.0f-%.0f req/s",
		len(ref.res), ref.outstanding, satDone, quantile(satRates, 0), quantile(satRates, 1))

	var lat, late []float64
	for _, res := range ref.res {
		lat = append(lat, res.latency())
		late = append(late, ms(res.sent-res.sched))
	}
	r.metricE2E("setup_s", st.total, "s")
	r.metricE2E("heap_mb", heap, "MB")
	r.metricE2E("query_p50_ms", median(lat), "ms")
	r.metricE2E("query_p99_ms", quantile(lat, 0.99), "ms")
	r.metricE2E("max_rate_rps", maxRate, "req/s")
	r.generic("setup_s", st.total)
	r.generic("heap_mb", heap)
	r.generic("p50_ms", median(lat))
	classLat := classLatencies(all)
	r.generic("tail_ms", quantile(classLat, 0.95))
	r.generic("ops_per_s", maxRate)
	c.st.Notes["tail_ms"] = fmt.Sprintf("p95 over all %d requests at %.0f req/s of their query class's median latency, the fresh requests one class (query_p99_ms is the p99 of the quiet rounds' %d)",
		len(classLat), serveRefRate, len(lat))
	c.st.Notes["ops_per_s"] = fmt.Sprintf("max_rate_rps: upper quartile of %d saturation blocks' completed requests per wall-clock second", len(satRates))
	c.st.Notes["mix"] = fmt.Sprintf("hot %.0f%%, limit %.0f%% (limit %d), fresh %.0f%% (%d never-seen P2); pool %d P2/P3 patterns, Zipf s=%.1f; %d client connections; server Workers=1",
		hotShare*100, limitShare*100, serveLimit, (1-hotShare-limitShare)*100, len(mix.fresh)+len(satMix.fresh), len(pool), zipfS, nproc)
	if !traced {
		return nil
	}
	c.tr.on = true

	dalMetrics(r, []dataset{ds}, st)
	procMetrics(r, p0, p1)
	r.layer("loadgen.late_ms_p99", quantile(late, 0.99), "ms")
	r.layer("loadgen.outstanding", float64(ref.outstanding), "count")
	r.layer("session.plan_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "ratio")
	r.layer("session.result_hit_ratio", ratio(float64(rh1-rh0), float64(rh1-rh0+rm1-rm0)), "ratio")
	r.layer("serve.rejected", v1["rejected"]-v0["rejected"], "count")
	r.layer("serve.truncated", v1["truncations"]-v0["truncations"], "count")
	// Hot responses carry the cached run's elapsed_ms, so the server's
	// own overhead is measured on the requests that mined.
	var over, eng, queue []float64
	for i, res := range ref.res {
		queue = append(queue, ms(res.wrote-res.sched))
		if ref.qs[i].kind != kindHot {
			over = append(over, ms(res.done-res.sent)-res.resp.ElapsedMS)
			eng = append(eng, res.resp.ElapsedMS)
		}
	}
	r.layer("serve.overhead_ms_p50", median(over), "ms")
	r.layer("serve.overhead_ms_p99", quantile(over, 0.99), "ms")
	r.layer("serve.engine_ms_p99", quantile(eng, 0.99), "ms")
	r.layer("serve.queue_ms_p99", quantile(queue, 0.99), "ms")

	// Client-side layer probes over the reference phase's literals.
	var parse, canon []float64
	for i, q := range ref.qs {
		trace := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		_, end := c.tr.begin(trace, 0, "pattern.ParsePattern")
		p, err := ohminer.ParsePattern(q.lit)
		end()
		t1 := time.Now()
		if err != nil {
			return err
		}
		_, end = c.tr.begin(trace, 0, "pattern.CanonicalKey")
		pattern.CanonicalKey(p)
		end()
		parse = append(parse, float64(t1.Sub(t0))/1e3)
		canon = append(canon, float64(time.Since(t1))/1e3)
	}
	r.layer("pattern.parse_us", median(parse), "us")
	r.layer("pattern.canon_us", median(canon), "us")
	var compile []float64
	var ops int
	for i := range mix.fresh {
		t0 := time.Now()
		_, end := c.tr.begin(fmt.Sprintf("fresh-%d", i), 0, "oig.CompilePlan")
		plan, err := engine.CompilePlan(ds.store, mix.fresh[i], engine.Options{})
		end()
		if err != nil {
			return err
		}
		compile = append(compile, ms(time.Since(t0)))
		ops += planOps(plan)
	}
	r.layer("oig.compile_ms", median(compile), "ms")
	r.layer("oig.plan_ops", ratio(float64(ops), float64(len(mix.fresh))), "count")
	var sessOver []float64
	for i, p := range pool {
		_, end := c.tr.begin(fmt.Sprintf("session-%d", i), 0, "session.MineContext")
		t0 := time.Now()
		res, err := sess.MineContext(context.Background(), p, ohminer.WithLimit(serveLimit), ohminer.WithWorkers(1))
		wall := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		sessOver = append(sessOver, float64(wall-res.Elapsed)/1e3)
	}
	r.layer("session.overhead_us", median(sessOver), "us")

	// Tracing overhead: half a reference phase again with spans on every
	// request, against the untraced phase above.
	again, err := mix.schedule(serveRefRate, durRef/2, 1)
	if err != nil {
		return err
	}
	more, err := libraryCounts(ds.store, mix.fresh[len(fresh):])
	if err != nil {
		return err
	}
	fresh = append(fresh, more...)
	tr := openLoop(c, client, lb.url, again[0].qs, again[0].at)
	var tlat []float64
	for i, res := range tr.res {
		tlat = append(tlat, res.latency())
		c.g.op(checkQuery(c.g, tr.qs[i], res, full, fresh))
	}
	r.layer("trace.overhead_frac", median(tlat)/median(lat)-1, "ratio")
	return nil
}

// classLatencies gives each request of a phase the median latency of its
// class, which recurs throughout the run, so a host stall that hits one
// request stays out of the tail. A hot or limit class is one pool pattern;
// the fresh requests, each a pattern never seen before, form one class, so
// the p95 covers their parse, canonicalisation and plan compilation: they
// are a tenth of the requests and the slowest class. Over ten seeds on a
// 2-vCPU VM the raw p99 moved by 46% (IQR over median) and the p95 of
// class latencies by 9%; their p99 moved by 18%, falling on limit classes
// sent two to seven times a run.
func classLatencies(pr phaseResult) []float64 {
	type class struct{ kind, idx int }
	classOf := func(q query) class {
		if q.kind == kindFresh {
			return class{kindFresh, 0}
		}
		return class{q.kind, q.idx}
	}
	byClass := map[class][]float64{}
	for i, q := range pr.qs {
		byClass[classOf(q)] = append(byClass[classOf(q)], pr.res[i].latency())
	}
	out := make([]float64, len(pr.qs))
	for i, q := range pr.qs {
		out[i] = median(byClass[classOf(q)])
	}
	return out
}

// libraryCounts counts every pattern with the library, outside any timed
// phase.
func libraryCounts(store *ohminer.Store, ps []*ohminer.Pattern) ([]refCounts, error) {
	out := make([]refCounts, len(ps))
	for i, p := range ps {
		res, err := ohminer.Mine(store, p, ohminer.WithWorkers(runtime.NumCPU()))
		if err != nil {
			return nil, err
		}
		out[i] = refCounts{res.Ordered, res.Unique}
	}
	return out, nil
}

// checkQuery checks one /query response: hot and fresh queries must return
// the library's exact count untruncated; a limit query must report at
// least min(limit, full count) and never more than the full count.
func checkQuery(g *gate, q query, res queryResult, full, fresh []refCounts) bool {
	what := fmt.Sprintf("query %q", q.lit)
	if res.err != nil || res.status != http.StatusOK {
		g.note("%s: status %d: %v", what, res.status, res.err)
		return false
	}
	counts := full
	if q.kind == kindFresh {
		counts = fresh
	}
	want := counts[q.idx]
	if q.kind == kindLimit {
		floor := min(uint64(serveLimit), want.ordered)
		if !res.resp.Truncated {
			floor = want.ordered
		}
		got := res.resp.Ordered
		if got > want.ordered || got < floor {
			return g.embeddings(what+" limit ordered", got, floor)
		}
		return true
	}
	if res.resp.Truncated {
		g.note("%s: truncated", what)
		return false
	}
	ok := g.embeddings(what+" ordered", res.resp.Ordered, want.ordered)
	return g.embeddings(what+" unique", res.resp.Unique, want.unique) && ok
}

// completed counts a phase's successful requests.
func completed(pr phaseResult) int {
	ok := 0
	for _, r := range pr.res {
		if r.err == nil && r.status == http.StatusOK {
			ok++
		}
	}
	return ok
}
