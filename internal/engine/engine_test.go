package engine

import (
	"math/rand"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// fig1 builds the running example of the paper: the Figure 1(b) hypergraph
// and the Figure 1(a) pattern, whose only embedding is {e1, e2, e3}.
func fig1(t *testing.T) (*dal.Store, *pattern.Pattern) {
	t.Helper()
	h := hypergraph.MustBuild(15, [][]uint32{
		{0, 1, 2, 3, 4, 5},         // e1
		{3, 4, 5, 6, 7, 8},         // e2
		{3, 4, 5, 6, 7, 9, 10, 11}, // e3
		{0, 1, 2, 9, 12, 13},       // e4
		{1, 3, 4, 5, 6, 7, 8, 14},  // e5
	}, nil)
	p := pattern.MustNew([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 9, 10, 11},
	}, nil)
	return dal.Build(h), p
}

func TestFig1AllVariants(t *testing.T) {
	store, p := fig1(t)
	want := bruteforce.Count(store.Hypergraph(), p)
	if want != 1 {
		t.Fatalf("brute force found %d ordered embeddings, want 1", want)
	}
	for _, v := range Variants() {
		res, err := Mine(store, p, Options{Gen: v.Gen, Val: v.Val, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if res.Ordered != want {
			t.Errorf("%s: Ordered=%d want %d", v.Name, res.Ordered, want)
		}
		if res.Unique != 1 || res.Automorphisms != 1 {
			t.Errorf("%s: unique=%d aut=%d", v.Name, res.Unique, res.Automorphisms)
		}
	}
}

func randHypergraph(rng *rand.Rand, labeled bool) *hypergraph.Hypergraph {
	nv := 12 + rng.Intn(25)
	ne := 15 + rng.Intn(40)
	edges := make([][]uint32, ne)
	for i := range edges {
		sz := 2 + rng.Intn(5)
		for j := 0; j < sz; j++ {
			edges[i] = append(edges[i], uint32(rng.Intn(nv)))
		}
	}
	var labels []uint32
	if labeled {
		labels = make([]uint32, nv)
		for v := range labels {
			labels[v] = uint32(rng.Intn(3))
		}
	}
	h, err := hypergraph.Build(nv, edges, labels)
	if err != nil {
		panic(err)
	}
	return h
}

// TestDifferentialAllVariants is the central correctness test: every engine
// variant, both kernel families, 1 and 3 workers, against the
// brute-force oracle on randomized hypergraphs and patterns.
func TestDifferentialAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, false)
		store := dal.Build(h)
		m := 2 + rng.Intn(3)
		p, err := pattern.Sample(h, m, 2, 30, rng)
		if err != nil {
			continue // graph too sparse for this pattern; fine
		}
		want := bruteforce.Count(h, p)
		for _, v := range Variants() {
			for _, kernel := range []intset.Kernel{intset.Adaptive, intset.Scalar} {
				for _, workers := range []int{1, 3} {
					res, err := Mine(store, p, Options{Gen: v.Gen, Val: v.Val, Kernel: kernel, Workers: workers})
					if err != nil {
						t.Fatalf("trial %d %s: %v", trial, v.Name, err)
					}
					if res.Ordered != want {
						t.Fatalf("trial %d %s kernel=%s workers=%d: Ordered=%d want %d\npattern %s\nplan:\n%s",
							trial, v.Name, kernel.Name, workers, res.Ordered, want, p, res.Plan)
					}
				}
			}
		}
	}
}

// TestDifferentialLabeled repeats the differential test on labeled inputs.
func TestDifferentialLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, true)
		store := dal.Build(h)
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 30, rng)
		if err != nil {
			continue
		}
		want := bruteforce.Count(h, p)
		for _, v := range Variants() {
			res, err := Mine(store, p, Options{Gen: v.Gen, Val: v.Val, Workers: 2})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, v.Name, err)
			}
			if res.Ordered != want {
				t.Fatalf("trial %d %s: Ordered=%d want %d (labeled)\npattern %s",
					trial, v.Name, res.Ordered, want, p)
			}
		}
	}
}

// TestDifferentialDense exercises dense patterns (Sec. 5.5), which stress
// the validation path with many overlaps.
func TestDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 40, NumEdges: 60,
		Communities: 3, MemberOverlap: 1.5, EdgeSizeMin: 3, EdgeSizeMax: 8, EdgeSizeMean: 5, Seed: 77})
	store := dal.Build(h)
	for trial := 0; trial < 10; trial++ {
		p, err := pattern.SampleDense(h, 3, 3, 25, rng)
		if err != nil {
			t.Skip("dense sampling failed on tiny graph")
		}
		want := bruteforce.Count(h, p)
		for _, v := range Variants() {
			res, err := Mine(store, p, Options{Gen: v.Gen, Val: v.Val, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ordered != want {
				t.Fatalf("%s: Ordered=%d want %d for dense %s", v.Name, res.Ordered, want, p)
			}
		}
	}
}

func TestSingleEdgePattern(t *testing.T) {
	store, _ := fig1(t)
	p := pattern.MustNew([][]uint32{{0, 1, 2, 3, 4, 5}}, nil)
	res, err := Mine(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three degree-6 edges in the fixture.
	if res.Ordered != 3 {
		t.Fatalf("Ordered=%d want 3", res.Ordered)
	}
}

func TestAutomorphismAccounting(t *testing.T) {
	// A symmetric path pattern on a path-ish hypergraph: each unordered
	// embedding is found exactly Automorphisms() times.
	h := hypergraph.MustBuild(8, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
	}, nil)
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
	res, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Automorphisms != 2 {
		t.Fatalf("automorphisms=%d", res.Automorphisms)
	}
	// Paths of 3 consecutive edges: (e0,e1,e2), (e1,e2,e3), (e2,e3,e4) →
	// 3 unique, 6 ordered.
	if res.Unique != 3 || res.Ordered != 6 {
		t.Fatalf("unique=%d ordered=%d", res.Unique, res.Ordered)
	}
}

func TestOnEmbedding(t *testing.T) {
	store, p := fig1(t)
	var got [][]uint32
	_, err := Mine(store, p, Options{Workers: 2, OnEmbedding: func(c []uint32) {
		got = append(got, append([]uint32(nil), c...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("callbacks: %d", len(got))
	}
	// The embedding must be {e1,e2,e3} = IDs {0,1,2} in matching order.
	seen := map[uint32]bool{}
	for _, e := range got[0] {
		seen[e] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("embedding %v", got[0])
	}
}

func TestLimit(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "t", NumVertices: 100, NumEdges: 300,
		Communities: 5, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 6, EdgeSizeMean: 3, Seed: 55})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(3))
	p, err := pattern.Sample(h, 2, 2, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Mine(store, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Ordered < 10 {
		t.Skipf("workload too small (%d embeddings)", full.Ordered)
	}
	limited, err := Mine(store, p, Options{Workers: 1, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Ordered < 5 || limited.Ordered >= full.Ordered {
		t.Fatalf("limited=%d full=%d", limited.Ordered, full.Ordered)
	}
}

func TestInstrumentStats(t *testing.T) {
	store, p := fig1(t)
	res, err := Mine(store, p, Options{Gen: GenHGMatch, Val: ValProfiles, Workers: 1, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates == 0 || st.ProfileVertices == 0 {
		t.Fatalf("stats not collected: %+v", st)
	}
	if st.RedundantProfileVertices == 0 {
		t.Fatalf("expected redundant profile vertices on fig1: %+v", st)
	}
	if st.GenTime <= 0 || st.ValTime <= 0 {
		t.Fatalf("phase timers missing: %+v", st)
	}
	res2, err := Mine(store, p, Options{Gen: GenDAL, Val: ValOverlap, Workers: 1, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.SetOps == 0 {
		t.Fatalf("overlap validation counted no set ops: %+v", res2.Stats)
	}
}

func TestMineErrors(t *testing.T) {
	store, p := fig1(t)
	// Mismatched plan mode.
	plan := oig.MustCompile(p, oig.ModeSimple)
	if _, err := MineWithPlan(store, plan, Options{Val: ValOverlap}); err == nil {
		t.Error("merged validation accepted simple plan")
	}
	plan2 := oig.MustCompile(p, oig.ModeMerged)
	if _, err := MineWithPlan(store, plan2, Options{Val: ValOverlapSimple}); err == nil {
		t.Error("simple validation accepted merged plan")
	}
	// Labeled pattern on unlabeled hypergraph.
	lp := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, []uint32{0, 0, 1})
	if _, err := Mine(store, lp, Options{}); err == nil {
		t.Error("labeled pattern accepted on unlabeled hypergraph")
	}
}

func TestVariantByName(t *testing.T) {
	v, err := VariantByName("OHM-V")
	if err != nil || v.Gen != GenHGMatch || v.Val != ValOverlap {
		t.Fatalf("%+v %v", v, err)
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestNoMatchingDegree(t *testing.T) {
	store, _ := fig1(t)
	p := pattern.MustNew([][]uint32{{0, 1, 2}}, nil) // degree 3: absent
	res, err := Mine(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != 0 {
		t.Fatalf("Ordered=%d want 0", res.Ordered)
	}
}
