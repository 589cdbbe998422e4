package cluster

// Durability tests for the coordinator WAL (wal.go): crash/replay with the
// exactly-once merge contract, torn-tail tolerance, corrupt-record refusal,
// snapshot+log compaction equivalence, and the full-disk degrade/self-heal
// loop. Crashes are simulated with wal.kill() — flusher stopped, file
// abandoned unsynced — and a second coordinator opened over the same
// directory, exactly what a restarted process does.

import (
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ohminer/internal/crcio"
	"ohminer/internal/dal"
	"ohminer/internal/faultinject"
)

// durableCluster builds a coordinator over dir plus its HTTP surface.
func durableCluster(t *testing.T, store *dal.Store, dir string, clk *fakeClock) (*Coordinator, *httptest.Server) {
	t.Helper()
	return testCluster(t, store, Config{
		LeaseTTL: 10 * time.Second, Parts: 4, Dir: dir, now: clk.Now,
	})
}

// crash abandons the coordinator's WAL without a clean close, simulating a
// process kill. The httptest server keeps answering from the dead state
// until the test stops using it.
func crash(c *Coordinator) { c.wal.kill() }

// TestWALReplayThenMergeExactlyOnce is the headline durability contract: a
// coordinator dies with one task merged and another leased out; the
// restarted coordinator replays its state, resurrects the in-flight lease as
// pending (same epoch), salvages the pre-crash worker's late report exactly
// once, fences a duplicate of the already-merged report, and finishes with
// single-node-exact counts.
func TestWALReplayThenMergeExactlyOnce(t *testing.T) {
	t.Run("split=0", func(t *testing.T) {
		store, pat, want := starWorkload(t)
		dir := t.TempDir()
		clk := newFakeClock()

		c1, srv1 := durableCluster(t, store, dir, clk)
		if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
			t.Fatalf("start job: %v", err)
		}
		merged := leaseAs(t, srv1, store, "w1")
		if merged == nil {
			t.Fatal("no lease granted")
		}
		mergedRep := mineLease(t, store, merged)
		mergedRep.Worker = "w1"
		if code := postJSON(t, srv1, "/cluster/report", mergedRep, nil); code != http.StatusOK {
			t.Fatalf("report: status %d", code)
		}
		inflight := leaseAs(t, srv1, store, "w1")
		if inflight == nil {
			t.Fatal("no second lease granted")
		}
		// The worker mines the in-flight lease… and the coordinator dies.
		inflightRep := mineLease(t, store, inflight)
		inflightRep.Worker = "w1"
		crash(c1)

		c2, srv2 := durableCluster(t, store, dir, clk)
		st, ok := c2.JobStatusByID("j")
		if !ok {
			t.Fatal("job lost across restart")
		}
		if st.State != "running" || st.Done != 1 || st.Ordered != mergedRep.Ordered {
			t.Fatalf("replayed job: state=%s done=%d ordered=%d, want running/1/%d",
				st.State, st.Done, st.Ordered, mergedRep.Ordered)
		}
		if st.Leased != 0 {
			t.Fatalf("replayed job still shows %d leased tasks; all leases must be force-expired", st.Leased)
		}
		cst := c2.Status()
		if cst.ReplayedJobs != 1 || cst.ResurrectedLeases != 1 {
			t.Fatalf("recovery counters: replayed=%d resurrected=%d, want 1/1", cst.ReplayedJobs, cst.ResurrectedLeases)
		}
		if !cst.Durable {
			t.Fatal("durable coordinator reports durable=false")
		}

		// The pre-crash worker's report arrives late: epoch still matches
		// the resurrected (pending) task, so the work is salvaged.
		if code := postJSON(t, srv2, "/cluster/report", inflightRep, nil); code != http.StatusOK {
			t.Fatalf("salvage report after restart: status %d", code)
		}
		// A duplicate of the pre-crash merged report must be fenced: that
		// task was already counted, replay included.
		if code := postJSON(t, srv2, "/cluster/report", mergedRep, nil); code != http.StatusGone {
			t.Fatalf("duplicate report: status %d, want 410", code)
		}
		drainJob(t, srv2, store, "w2")
		st, _ = c2.JobStatusByID("j")
		if st.State != "done" || st.Ordered != want {
			t.Fatalf("after restart: state=%s ordered=%d, want done/%d", st.State, st.Ordered, want)
		}

		// Third incarnation: the finished job survives compaction and
		// another replay with the same exact count.
		c2.Close()
		c3, _ := durableCluster(t, store, dir, clk)
		st, ok = c3.JobStatusByID("j")
		if !ok || st.State != "done" || st.Ordered != want {
			t.Fatalf("second restart: ok=%v state=%s ordered=%d, want done/%d", ok, st.State, st.Ordered, want)
		}
	})
}

// TestWALTornFinalRecordTolerated crashes mid-append: a torn final frame
// (and, separately, a few garbage bytes) after valid records must be
// truncated away while every intact record replays.
func TestWALTornFinalRecordTolerated(t *testing.T) {
	for _, tear := range []struct {
		name string
		tail func() []byte
	}{
		{"half-frame", func() []byte {
			// A plausible length prefix promising more bytes than exist.
			tail := make([]byte, 14)
			binary.LittleEndian.PutUint32(tail, 100)
			copy(tail[4:], "{\"seq\":99,")
			return tail
		}},
		{"two-bytes", func() []byte { return []byte{0x7f, 0x01} }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			store, pat, _ := starWorkload(t)
			dir := t.TempDir()
			clk := newFakeClock()

			c1, srv1 := durableCluster(t, store, dir, clk)
			if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
				t.Fatalf("start job: %v", err)
			}
			lease := leaseAs(t, srv1, store, "w1")
			if lease == nil {
				t.Fatal("no lease granted")
			}
			crash(c1)

			path := filepath.Join(dir, walFile)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear.tail()); err != nil {
				t.Fatal(err)
			}
			f.Close()

			c2, _ := durableCluster(t, store, dir, clk)
			st, ok := c2.JobStatusByID("j")
			if !ok || st.State != "running" {
				t.Fatalf("torn tail lost the job: ok=%v state=%s", ok, st.State)
			}
			// The admitted job and its grant both replayed: the granted task
			// is pending again with its epoch intact.
			if st.Tasks[lease.Task].Epoch != lease.Epoch {
				t.Fatalf("task epoch %d, want %d preserved across torn-tail replay",
					st.Tasks[lease.Task].Epoch, lease.Epoch)
			}
		})
	}
}

// TestWALCorruptRecordRefused flips a byte inside a complete mid-file record:
// that is not a torn tail, it is corruption, and startup must refuse with
// ErrCorrupt instead of mining from a wrong lease state.
func TestWALCorruptRecordRefused(t *testing.T) {
	store, pat, _ := starWorkload(t)
	dir := t.TempDir()
	clk := newFakeClock()

	c1, srv1 := durableCluster(t, store, dir, clk)
	if _, err := c1.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job: %v", err)
	}
	if lease := leaseAs(t, srv1, store, "w1"); lease == nil {
		t.Fatal("no lease granted")
	}
	crash(c1)

	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First frame starts after the header: flip a payload byte.
	n := binary.LittleEndian.Uint32(data[walHdrLen:])
	if int(walHdrLen+4+n) > len(data) {
		t.Fatalf("test setup: first frame (%d bytes) overruns file (%d)", n, len(data))
	}
	data[walHdrLen+4+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = New(store, Config{Dir: dir, now: clk.Now})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record: err=%v, want ErrCorrupt", err)
	}

	// Same contract for a corrupt state snapshot.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, stateFile)
	sdata := make([]byte, walHdrLen+8)
	binary.LittleEndian.PutUint32(sdata, stateMagic)
	binary.LittleEndian.PutUint32(sdata[4:], stateVersion)
	binary.LittleEndian.PutUint32(sdata[len(sdata)-4:], crcio.Checksum(sdata[:len(sdata)-4])^0xdeadbeef)
	if err := os.WriteFile(spath, sdata, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(store, Config{Dir: dir, now: clk.Now})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err=%v, want ErrCorrupt", err)
	}
}

// TestWALSnapshotCompactionEquivalence: a finished job lives only in the
// compacted snapshot, a running one partly in the snapshot and partly in the
// log tail — replaying the combination must reproduce the coordinator's
// pre-crash view exactly, and completing the running job must still hit the
// single-node count.
func TestWALSnapshotCompactionEquivalence(t *testing.T) {
	store, pat, want := starWorkload(t)
	dir := t.TempDir()
	clk := newFakeClock()

	c1, srv1 := durableCluster(t, store, dir, clk)
	if _, err := c1.StartJob("j1", JobSpec{Pattern: pat}); err != nil {
		t.Fatal(err)
	}
	drainJob(t, srv1, store, "w1")
	r1, _, comp1 := c1.wal.stats()
	if comp1 == 0 {
		t.Fatalf("job completion did not compact the WAL (records=%d)", r1)
	}
	// j2: one task merged (log records after the snapshot), rest pending.
	if _, err := c1.StartJob("j2", JobSpec{Pattern: pat}); err != nil {
		t.Fatal(err)
	}
	lease := leaseAs(t, srv1, store, "w1")
	rep := mineLease(t, store, lease)
	rep.Worker = "w1"
	if code := postJSON(t, srv1, "/cluster/report", rep, nil); code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	before1, _ := c1.JobStatusByID("j1")
	before2, _ := c1.JobStatusByID("j2")
	crash(c1)

	c2, srv2 := durableCluster(t, store, dir, clk)
	after1, ok1 := c2.JobStatusByID("j1")
	after2, ok2 := c2.JobStatusByID("j2")
	if !ok1 || !ok2 {
		t.Fatalf("jobs lost: j1=%v j2=%v", ok1, ok2)
	}
	if after1.State != before1.State || after1.Ordered != before1.Ordered || after1.Unique != before1.Unique {
		t.Fatalf("j1 (snapshot-only) diverged: %+v -> %+v", before1, after1)
	}
	if after2.State != before2.State || after2.Ordered != before2.Ordered || after2.Done != before2.Done || after2.Parts != before2.Parts {
		t.Fatalf("j2 (snapshot+log) diverged: %+v -> %+v", before2, after2)
	}
	drainJob(t, srv2, store, "w2")
	final, _ := c2.JobStatusByID("j2")
	if final.State != "done" || final.Ordered != want {
		t.Fatalf("j2 after restart: state=%s ordered=%d, want done/%d", final.State, final.Ordered, want)
	}
}

// TestWALNoSpaceDegradesThenHeals: a full disk must shed new work with 503 +
// Retry-After (nothing may be accepted that can't be made durable), and the
// flusher's probe records must bring the coordinator back on their own once
// space frees up — no restart, no operator.
func TestWALNoSpaceDegradesThenHeals(t *testing.T) {
	store, pat, want := starWorkload(t)
	dir := t.TempDir()
	clk := newFakeClock()
	nw := &faultinject.NoSpaceWriter{}
	c, err := New(store, Config{
		LeaseTTL: 10 * time.Second, Parts: 4, Dir: dir, now: clk.Now,
		FlushEvery: 5 * time.Millisecond,
		WALWrap:    func(w io.Writer) io.Writer { nw.W = w; return nw },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	nw.Break()
	code := postJSON(t, srv, "/cluster/jobs", jobCreateRequest{ID: "j", JobSpec: JobSpec{Pattern: pat}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("job create on full disk: status %d, want 503", code)
	}
	if !c.Degraded() {
		t.Fatal("coordinator not degraded after a failed append")
	}
	// Degraded rejections must carry Retry-After.
	resp, err := http.Post(srv.URL+"/cluster/jobs", "application/json",
		strings.NewReader(`{"id":"j","pattern":"0 1; 0 2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded shed: status=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if st := c.Status(); !st.Degraded || st.DegradedRejects == 0 {
		t.Fatalf("status while degraded: degraded=%v rejects=%d", st.Degraded, st.DegradedRejects)
	}

	nw.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for c.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator did not self-heal after the disk came back")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := c.StartJob("j", JobSpec{Pattern: pat}); err != nil {
		t.Fatalf("start job after heal: %v", err)
	}
	drainJob(t, srv, store, "w1")
	st, _ := c.JobStatusByID("j")
	if st.State != "done" || st.Ordered != want {
		t.Fatalf("after heal: state=%s ordered=%d, want done/%d", st.State, st.Ordered, want)
	}
	if dropped := nw.Dropped(); dropped == 0 {
		t.Fatal("fault writer never saw a dropped write")
	}
}
