package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ohminer"
	"ohminer/internal/pattern"
	"ohminer/internal/serve"
)

// stream-feed shape: batches of fresh CD hyperedges, a share of live edges
// retired per batch, and a window that expires the rest. The live set
// plateaus near 76k edges, where anchored evaluation is most of a batch.
const (
	streamAdds    = 2000 // hyperedges added per batch
	streamRetires = 200  // live hyperedges retired per batch
	streamWindow  = 40   // batches an edge stays live without a refresh
	streamCheck   = 25   // batches between count checks
)

type edgeState struct {
	verts    []uint32
	lastAdd  uint64 // epoch of the last add; 0 = never added
	inWindow bool   // live: added within the window and not retired since
}

// feedModel generates the batch feed from the seed and tracks which edges
// the stream should hold live, independently of the system.
type feedModel struct {
	rng    *rand.Rand
	edges  []edgeState
	cursor int
	epoch  uint64
	live   []int // candidates for retirement, pruned lazily
}

type batchPlan struct {
	add, retire [][]uint32
	expired     int
}

// next draws batch epoch+1 and applies it to the model.
func (m *feedModel) next(adds, retires int) batchPlan {
	m.epoch++
	t := m.epoch
	var bp batchPlan
	// Window expiry: live edges last added at or before t−W.
	keep := m.live[:0]
	for _, i := range m.live {
		e := &m.edges[i]
		switch {
		case !e.inWindow: // retired
		case e.lastAdd+streamWindow <= t:
			e.inWindow = false
			bp.expired++
		default:
			keep = append(keep, i)
		}
	}
	m.live = keep
	// Retirements from edges that stay in the window this epoch.
	for n := 0; n < retires && len(m.live) > 0; n++ {
		k := m.rng.Intn(len(m.live))
		i := m.live[k]
		m.live[k] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		m.edges[i].inWindow = false
		bp.retire = append(bp.retire, m.edges[i].verts)
	}
	// Adds continue in feed order, wrapping around to edges long expired.
	for n := 0; n < adds; n++ {
		i := m.cursor
		m.cursor = (m.cursor + 1) % len(m.edges)
		e := &m.edges[i]
		if e.inWindow {
			continue // still live from the previous lap; never happens with a long feed
		}
		e.lastAdd, e.inWindow = t, true
		m.live = append(m.live, i)
		bp.add = append(bp.add, e.verts)
	}
	return bp
}

// liveSets is the model's live hyperedge set.
func (m *feedModel) liveSets() [][]uint32 {
	var out [][]uint32
	for _, e := range m.edges {
		if e.inWindow {
			out = append(out, e.verts)
		}
	}
	return out
}

// post sends one JSON request on the feeder connection and decodes the
// 2xx answer into out.
func (g *streamRig) post(path string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := g.feeder.Post(g.lb.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e) // best effort: the status is the error
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type batchBody struct {
	Seq    uint64     `json:"seq"`
	Add    [][]uint32 `json:"add,omitempty"`
	Retire [][]uint32 `json:"retire,omitempty"`
}

// sseReader records when each epoch's delta event arrives.
type sseReader struct {
	mu   sync.Mutex
	seen map[uint64]time.Time // guarded by mu
	cond *sync.Cond
	done chan struct{}
	resp *http.Response
	rerr error // guarded by mu
}

func subscribe(client *http.Client, url string) (*sseReader, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	r := &sseReader{seen: map[uint64]time.Time{}, done: make(chan struct{}), resp: resp}
	r.cond = sync.NewCond(&r.mu)
	go r.loop()
	return r, nil
}

func (r *sseReader) loop() {
	defer close(r.done)
	sc := bufio.NewScanner(r.resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		now := time.Now()
		var d ohminer.StreamDelta
		if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil {
			continue
		}
		r.mu.Lock()
		r.seen[d.Epoch] = now
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.rerr = fmt.Errorf("event stream ended: %v", sc.Err())
	r.cond.Broadcast()
	r.mu.Unlock()
}

// wait returns when epoch's event was read, or the zero time if the
// stream ended first.
func (r *sseReader) wait(epoch uint64, timeout time.Duration) time.Time {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if t, ok := r.seen[epoch]; ok {
			return t
		}
		if r.rerr != nil || time.Now().After(deadline) {
			return time.Time{}
		}
		r.cond.Wait()
	}
}

func (r *sseReader) close() {
	r.resp.Body.Close()
	<-r.done
}

// streamRig is one served stream ready to feed.
type streamRig struct {
	srv     *serve.Server
	lb      *loopback
	feeder  *http.Client // the one feeder connection
	sse     *sseReader
	sub     *http.Client // the one subscriber connection
	model   *feedModel
	seqs    []uint64 // standing query IDs
	dir     string
	batches []batchPlan // every batch fed, for the library replay
}

func (g *streamRig) stop() {
	if g.sse != nil {
		g.sse.close()
	}
	g.srv.DisconnectStreams()
	_ = g.lb.stop() // the run's result does not depend on a clean shutdown
	g.sub.CloseIdleConnections()
	g.feeder.CloseIdleConnections()
}

// feed applies one batch through the server.
func (g *streamRig) feed(bp batchPlan) (serve.StreamBatchResponse, time.Time, time.Time, error) {
	var ack serve.StreamBatchResponse
	g.batches = append(g.batches, bp)
	sent := time.Now()
	err := g.post("/streams/feed/batches", batchBody{Seq: g.model.epoch, Add: bp.add, Retire: bp.retire}, &ack)
	return ack, sent, time.Now(), err
}

func (g *streamRig) checkAck(c *run, bp batchPlan, ack serve.StreamBatchResponse, err error) bool {
	if err != nil {
		c.g.note("batch %d: %v", g.model.epoch, err)
		return false
	}
	ok := ack.Applied && ack.Epoch == g.model.epoch && len(ack.Deltas) == len(g.seqs)
	ok = c.g.want(fmt.Sprintf("batch %d added", ack.Epoch), uint64(ack.Added), uint64(len(bp.add))) && ok
	ok = c.g.want(fmt.Sprintf("batch %d retired", ack.Epoch), uint64(ack.Retired), uint64(len(bp.retire))) && ok
	ok = c.g.want(fmt.Sprintf("batch %d expired", ack.Epoch), uint64(ack.Expired), uint64(bp.expired)) && ok
	return ok
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x58465342: "xfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func newStreamRig(c *run, in input, queries []*ohminer.Pattern, rep int, seeding int) (*streamRig, error) {
	dir := filepath.Join(c.tmp, fmt.Sprintf("streams-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tiny, err := ohminer.BuildHypergraph(1, [][]uint32{{0}}, nil)
	if err != nil {
		return nil, err
	}
	srv := serve.New(ohminer.NewSession(ohminer.NewStore(tiny)), serve.Config{StreamDir: dir})
	lb, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	g := &streamRig{srv: srv, lb: lb, dir: dir, sub: newClient(1), feeder: newClient(1)}
	g.sub.Timeout = 0 // the event stream stays open for the whole run
	model := &feedModel{rng: rand.New(rand.NewSource(c.seed)), edges: make([]edgeState, len(in.edges))}
	for i, e := range in.edges {
		model.edges[i].verts = e
	}
	g.model = model
	var created serve.StreamStatus
	if err := g.post("/streams", serve.StreamSpec{ID: "feed", NumVertices: in.nv, Window: streamWindow}, &created); err != nil {
		g.stop()
		return nil, err
	}
	// Seed until live |E| reaches its plateau: one full window. The
	// standing queries are registered afterwards, each with one count of
	// the live set, so seeding does not evaluate them batch by batch.
	for i := 0; i < seeding; i++ {
		bp := model.next(streamAdds, streamRetires)
		ack, _, _, err := g.feed(bp)
		c.g.op(g.checkAck(c, bp, ack, err))
		if err != nil {
			g.stop()
			return nil, err
		}
	}
	for _, p := range queries {
		var info ohminer.StreamQueryInfo
		if err := g.post("/streams/feed/queries", map[string]string{"pattern": p.String()}, &info); err != nil {
			g.stop()
			return nil, err
		}
		g.seqs = append(g.seqs, info.ID)
	}
	if g.sse, err = subscribe(g.sub, fmt.Sprintf("%s/streams/feed/queries/%d/events", lb.url, g.seqs[0])); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// checkTotals compares every standing query's cumulative totals with a
// from-scratch count over the model's live edges, and the live edge count
// with the server's.
func (g *streamRig) checkTotals(c *run, in input, queries []*ohminer.Pattern, last serve.StreamBatchResponse, builds, dals *[]float64) bool {
	if len(last.Deltas) != len(queries) {
		c.g.note("epoch %d: no acknowledged batch to check", g.model.epoch)
		return false
	}
	live := g.model.liveSets()
	trace := fmt.Sprintf("check-%d", g.model.epoch)
	t0 := time.Now()
	_, end := c.tr.begin(trace, 0, "hypergraph.BuildHypergraph")
	h, err := ohminer.BuildHypergraph(in.nv, live, nil)
	end()
	if err != nil {
		c.g.note("check %d: %v", g.model.epoch, err)
		return false
	}
	t1 := time.Now()
	_, end = c.tr.begin(trace, 0, "dal.NewStore")
	store := ohminer.NewStore(h)
	end()
	*builds = append(*builds, ms(t1.Sub(t0)))
	*dals = append(*dals, ms(time.Since(t1)))
	var status serve.StreamStatus
	resp, err := g.feeder.Get(g.lb.url + "/streams/feed")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
	}
	if err != nil {
		c.g.note("status: %v", err)
		return false
	}
	ok := c.g.want(fmt.Sprintf("epoch %d live edges", g.model.epoch), uint64(status.LiveEdges), uint64(len(live)))
	for i, p := range queries {
		res, err := ohminer.Mine(store, p, ohminer.WithWorkers(runtime.NumCPU()))
		if err != nil {
			c.g.note("oracle: %v", err)
			return false
		}
		d := last.Deltas[i]
		ok = c.g.embeddings(fmt.Sprintf("epoch %d query %d total", d.Epoch, d.QueryID), d.Total, res.Ordered) && ok
		ok = c.g.embeddings(fmt.Sprintf("epoch %d query %d unique", d.Epoch, d.QueryID), d.Unique, res.Unique) && ok
	}
	return ok
}

func streamFeed(c *run, r *report) error {
	reps, seeding := 3, streamWindow
	if c.quick {
		reps, seeding = 1, 4
	}
	in, err := generate(dataSpec{"CD", 1})
	if err != nil {
		return err
	}
	c.st.Datasets[in.spec.name()] = fmt.Sprintf("%016x", in.fp)
	// Standing queries: a P3, a P4 and a P5 sampled from the first window,
	// with k+1 to 2k vertices, so their hyperedges have the 2-4 vertices
	// most CD hyperedges have. Anchored evaluation scans every live edge
	// of a position's degree, and it is then most of a batch; with the
	// wide Table 4 patterns it was a tenth. They come from the catalogue
	// seed: drawn from the run seed, one seed's queries took 230 ms a batch
	// and another's 410 ms.
	first, err := ohminer.BuildHypergraph(in.nv, in.edges[:streamWindow*streamAdds], nil)
	if err != nil {
		return err
	}
	qrng := rand.New(rand.NewSource(catalogSeed))
	var queries []*ohminer.Pattern
	seen := map[string]bool{}
	for _, k := range []int{3, 4, 5} {
		for {
			p, err := pattern.Sample(first, k, k+1, 2*k, qrng)
			if err != nil {
				return err
			}
			if key, _ := pattern.CanonicalKey(p); !seen[key] {
				seen[key] = true
				queries = append(queries, p)
				break
			}
		}
	}

	// Set-up: server, stream, standing queries, subscription and seeding
	// to the live-edge plateau, repeated; the last repetition is fed.
	var setups []float64
	var rig *streamRig
	for rep := 0; rep < reps; rep++ {
		if rig != nil {
			rig.stop()
		}
		t0 := time.Now()
		rig, err = newStreamRig(c, in, queries, rep, seeding)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.stop()
	setup := median(setups)
	c.st.Notes["stream_dir_fs"] = fsType(rig.dir)
	heap := heapMB()
	logf("set-up %.2fs, live edges %d", setup, len(rig.model.liveSets()))

	// Timed feed: closed loop, one feeder; the count checks pause the clock.
	var ackLat, evLat, lag, evalMS []float64
	var applied, compactions int
	var feedTime time.Duration
	var builds, dals []float64
	var last serve.StreamBatchResponse
	p0 := readProc()
	traced := c.tr.on
	c.tr.on = false
	feedBatch := func() (serve.StreamBatchResponse, bool) {
		bp := rig.model.next(streamAdds, streamRetires)
		name := fmt.Sprintf("batch-%d", rig.model.epoch)
		root, endRoot := c.tr.begin(name, 0, "bench.batch")
		_, endB := c.tr.begin(name, root, "stream.POST batches")
		ack, sent, acked, err := rig.feed(bp)
		endB()
		ok := rig.checkAck(c, bp, ack, err)
		_, endE := c.tr.begin(name, root, "serve.SSE event")
		ev := rig.sse.wait(rig.model.epoch, 10*time.Second)
		endE()
		endRoot()
		if ev.IsZero() {
			c.g.note("batch %d: no event", rig.model.epoch)
			ok = false
		}
		c.g.op(ok)
		if !ok {
			return ack, false
		}
		ackLat = append(ackLat, ms(acked.Sub(sent)))
		evLat = append(evLat, ms(ev.Sub(sent)))
		lag = append(lag, ms(ev.Sub(acked)))
		e := 0.0
		for _, d := range ack.Deltas {
			e += d.ElapsedMS
		}
		evalMS = append(evalMS, e)
		applied += ack.Added + ack.Retired + ack.Expired
		if ack.Compacted {
			compactions++
		}
		feedTime += ev.Sub(sent)
		return ack, true
	}
	for n := 0; n == 0 || feedTime < time.Duration(c.seconds*float64(time.Second)); n++ {
		ack, ok := feedBatch()
		if !ok {
			break
		}
		last = ack
		if (n+1)%streamCheck == 0 {
			c.g.op(rig.checkTotals(c, in, queries, last, &builds, &dals))
		}
	}
	p1 := readProc()
	c.g.op(rig.checkTotals(c, in, queries, last, &builds, &dals))
	logf("%d batches fed in %.2fs", len(ackLat), feedTime.Seconds())

	r.metricE2E("setup_s", setup, "s")
	r.metricE2E("heap_mb", heap, "MB")
	r.metricE2E("batch_ack_p50_ms", median(ackLat), "ms")
	r.metricE2E("batch_ack_p99_ms", quantile(ackLat, 0.99), "ms")
	r.metricE2E("event_p99_ms", quantile(evLat, 0.99), "ms")
	r.metricE2E("edges_per_s", float64(applied)/feedTime.Seconds(), "1/s")
	r.generic("setup_s", setup)
	r.generic("heap_mb", heap)
	r.generic("p50_ms", median(ackLat))
	r.generic("tail_ms", quantile(ackLat, 0.75))
	r.generic("ops_per_s", float64(applied)/feedTime.Seconds())
	c.st.Notes["tail_ms"] = fmt.Sprintf("p75 of %d batch acks (p99 is printed as batch_ack_p99_ms)", len(ackLat))
	c.st.Notes["feed"] = fmt.Sprintf("CD edges in feed order, %d adds + %d retirements per batch, window %d batches; queries %s",
		streamAdds, streamRetires, streamWindow, strings.Join(patternStrings(queries), " | "))
	if !traced {
		return nil
	}

	procMetrics(r, p0, p1)
	r.layer("hypergraph.build_ms", median(builds), "ms")
	r.layer("dal.build_ms", median(dals), "ms")
	r.layer("stream.eval_ms_p50", median(evalMS), "ms")
	r.layer("stream.eval_ms_p99", quantile(evalMS, 0.99), "ms")
	r.layer("stream.compactions", float64(compactions), "count")
	r.layer("stream.live_edges", float64(len(rig.model.liveSets())), "count")
	r.layer("stream.event_p99_ms", quantile(evLat, 0.99), "ms")
	r.layer("serve.sse_lag_ms_p99", quantile(lag, 0.99), "ms")

	// Tracing overhead: more batches with spans, against the untraced ones.
	c.tr.on = true
	untraced := median(ackLat)
	ackLat = ackLat[:0]
	start := feedTime
	for feedTime-start < time.Duration(c.seconds*float64(time.Second)/2) {
		ack, ok := feedBatch()
		if !ok {
			break
		}
		last = ack
	}
	c.g.op(rig.checkTotals(c, in, queries, last, &builds, &dals))
	r.layer("trace.overhead_frac", median(ackLat)/untraced-1, "ratio")
	return streamReplay(c, r, in, queries, rig, seeding, last)
}

// streamReplay feeds the same batches to a library StreamMiner with a file
// sink, where ApplyBatch's wall time, BatchResult.Elapsed and the deltas'
// evaluation times split a batch into maintenance, evaluation and snapshot.
func streamReplay(c *run, r *report, in input, queries []*ohminer.Pattern, rig *streamRig, seeding int, last serve.StreamBatchResponse) error {
	path := filepath.Join(rig.dir, "replay.ohmt")
	m, err := ohminer.NewStreamMiner(ohminer.StreamConfig{
		NumVertices: in.nv, Window: streamWindow,
		Snapshot: &ohminer.StreamFileSink{Path: path},
	})
	if err != nil {
		return err
	}
	var maint, snap []float64
	var res *ohminer.StreamBatchResult
	for i, bp := range rig.batches {
		if i == seeding { // as the served stream: queries join after seeding
			for _, p := range queries {
				if _, err := m.RegisterQuery(p); err != nil {
					return err
				}
			}
		}
		trace := fmt.Sprintf("replay-%d", i+1)
		t0 := time.Now()
		_, end := c.tr.begin(trace, 0, "stream.ApplyBatch")
		res, err = m.ApplyBatch(ohminer.StreamBatch{Seq: uint64(i + 1), Add: bp.add, Retire: bp.retire})
		end()
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay batch %d: %w", i+1, err)
		}
		if i < seeding {
			continue
		}
		eval := 0.0
		for _, d := range res.Deltas {
			eval += d.ElapsedMS
		}
		maint = append(maint, ms(res.Elapsed)-eval)
		snap = append(snap, ms(wall-res.Elapsed))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.layer("stream.maint_ms_p50", median(maint), "ms")
	r.layer("stream.snapshot_ms_p50", median(snap), "ms")
	r.layer("stream.snapshot_bytes", float64(fi.Size()), "bytes")

	// The replay agrees with the served stream and with the model.
	ok := c.g.want("replay live edges", uint64(len(m.LiveEdgeSets())), uint64(len(rig.model.liveSets())))
	for i, d := range res.Deltas {
		ok = c.g.embeddings(fmt.Sprintf("replay query %d total", d.QueryID), d.Total, last.Deltas[i].Total) && ok
	}
	c.g.op(ok)
	return nil
}

func patternStrings(ps []*ohminer.Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}
