package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// TestStampHelpersWraparound checks the generation-advance helpers directly:
// when a uint32 stamp wraps to zero the mark array must be cleared and the
// stamp restarted at 1, otherwise marks written ~4 billion generations ago
// read as current.
func TestStampHelpersWraparound(t *testing.T) {
	w := &worker{
		edgeMark: []uint32{7, 0, ^uint32(0), 1},
		vertMark: []uint32{1, 2, 3},
	}
	w.edgeStamp = ^uint32(0)
	w.nextEdgeStamp()
	if w.edgeStamp != 1 {
		t.Errorf("edgeStamp after wrap = %d, want 1", w.edgeStamp)
	}
	for i, m := range w.edgeMark {
		if m != 0 {
			t.Errorf("edgeMark[%d] = %d after wrap, want 0", i, m)
		}
	}

	w.vertStamp = ^uint32(0)
	w.nextVertStamp()
	if w.vertStamp != 1 {
		t.Errorf("vertStamp after wrap = %d, want 1", w.vertStamp)
	}
	for i, m := range w.vertMark {
		if m != 0 {
			t.Errorf("vertMark[%d] = %d after wrap, want 0", i, m)
		}
	}

	// A mid-range advance must not clear anything.
	w.edgeMark[2] = 9
	w.edgeStamp = 41
	w.nextEdgeStamp()
	if w.edgeStamp != 42 || w.edgeMark[2] != 9 {
		t.Errorf("mid-range advance: stamp=%d mark=%d, want 42/9", w.edgeStamp, w.edgeMark[2])
	}
}

// TestMiningAcrossStampWraparound is the end-to-end regression test for the
// wraparound bug: a single worker starts with both stamps a few generations
// below ^uint32(0) and mark arrays poisoned with small values that alias the
// post-wrap stamps. Mining must cross the wrap and still produce exactly the
// counts of a fresh engine run; without the clear-on-wrap guard the stale
// marks read as "already seen" and the run undercounts.
func TestMiningAcrossStampWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randHypergraph(rng, false)
	store := dal.Build(h)
	var p *pattern.Pattern
	for p == nil {
		var err error
		p, err = pattern.Sample(h, 3, 2, 30, rng)
		if err != nil {
			h = randHypergraph(rng, false)
			store = dal.Build(h)
		}
	}

	// GenHGMatch exercises edgeMark (incident-edge merges), ValProfiles
	// exercises vertMark (profile validation) — one run covers both.
	opts := Options{Gen: GenHGMatch, Val: ValProfiles, Workers: 1}
	clean, err := Mine(store, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Ordered == 0 {
		t.Fatal("sampled pattern has no embeddings; test would be vacuous")
	}

	plan, err := oig.Compile(p, oig.ModeMerged)
	if err != nil {
		t.Fatal(err)
	}
	e := &shared{store: store, plan: plan, opts: opts, kernel: intset.Adaptive}
	var found atomic.Uint64
	w := newWorker(e, &found)

	const start = ^uint32(0) - 2
	w.edgeStamp = start
	w.vertStamp = start
	for i := range w.edgeMark {
		w.edgeMark[i] = uint32(i%8) + 1 // aliases stamps 1..8 after the wrap
	}
	for i := range w.vertMark {
		w.vertMark[i] = uint32(i%8) + 1
	}

	w.explore(0, e.firstCandidates())
	if w.count != clean.Ordered {
		t.Errorf("count across stamp wrap = %d, want %d", w.count, clean.Ordered)
	}
	// Prove the wrap actually happened: both stamps must have advanced past
	// ^uint32(0) and restarted low. If this fires, the input no longer
	// drives enough generations and the test is vacuous.
	if w.edgeStamp >= start {
		t.Errorf("edgeStamp=%d never wrapped (started at %d)", w.edgeStamp, start)
	}
	if w.vertStamp >= start {
		t.Errorf("vertStamp=%d never wrapped (started at %d)", w.vertStamp, start)
	}
}

// TestWorkerPoolDeterministic checks that the multi-worker pool is a pure
// parallelization: for every variant, mining with several workers yields
// exactly the single-worker counts. Run under -race (make race / make ci)
// this also shakes out data races between per-worker scratch states.
func TestWorkerPoolDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		labeled := trial%2 == 1
		h := randHypergraph(rng, labeled)
		store := dal.Build(h)
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 30, rng)
		if err != nil {
			continue
		}
		for _, v := range Variants() {
			base, err := Mine(store, p, Options{Gen: v.Gen, Val: v.Val, Workers: 1})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.Name, err)
			}
			for _, workers := range []int{2, 4, 8} {
				res, err := Mine(store, p, Options{Gen: v.Gen, Val: v.Val, Workers: workers})
				if err != nil {
					t.Fatalf("trial %d %s workers=%d: %v", trial, v.Name, workers, err)
				}
				if res.Ordered != base.Ordered || res.Unique != base.Unique || res.Truncated != base.Truncated {
					t.Errorf("trial %d %s workers=%d: ordered/unique/trunc = %d/%d/%v, single-worker %d/%d/%v",
						trial, v.Name, workers, res.Ordered, res.Unique, res.Truncated,
						base.Ordered, base.Unique, base.Truncated)
				}
			}
		}
	}
}
