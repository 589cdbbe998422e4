package engine

import (
	"math/rand"
	"strings"
	"testing"

	"ohminer/internal/bruteforce"
	"ohminer/internal/dal"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// randomAnchoring draws distinct seeds (a random subset of the hyperedges,
// or nil for the full degree class) and one mask per position, each nil
// (admit all) a third of the time.
func randomAnchoring(rng *rand.Rand, numEdges, positions int) ([]uint32, []EdgeMask) {
	var seeds []uint32
	if rng.Intn(4) > 0 {
		seeds = []uint32{}
		for _, e := range rng.Perm(numEdges) {
			if rng.Intn(3) == 0 {
				seeds = append(seeds, uint32(e))
			}
		}
	}
	masks := make([]EdgeMask, positions)
	for pos := range masks {
		if rng.Intn(3) == 0 {
			continue
		}
		masks[pos] = NewEdgeMask(numEdges)
		for e := 0; e < numEdges; e++ {
			if rng.Intn(4) > 0 {
				masks[pos].Set(uint32(e))
			}
		}
	}
	return seeds, masks
}

// TestAnchoredDifferential: on random small hypergraphs, a seeded and
// masked run of an unrestricted plan — anchor-first or structural — counts
// exactly the brute-force ordered embeddings whose bindings pass the same
// per-position predicate, on every variant, both kernels and 1 or 3
// workers.
func TestAnchoredDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	nonzero := 0
	for trial := 0; trial < trials; trial++ {
		h := randHypergraph(rng, false)
		store := dal.Build(h)
		p, err := pattern.Sample(h, 2+rng.Intn(3), 2, 30, rng)
		if err != nil {
			continue
		}
		var plan *oig.Plan
		if anchor := rng.Intn(p.NumEdges() + 1); anchor < p.NumEdges() {
			plan, err = CompileAnchored(store, p, anchor, Options{})
			if err == nil && plan.Order[0] != anchor {
				t.Fatalf("trial %d: anchor %d plan starts at %d", trial, anchor, plan.Order[0])
			}
		} else {
			plan, err = CompilePlan(store, p, Options{NoSymmetryBreak: true})
		}
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		seeds, masks := randomAnchoring(rng, h.NumEdges(), p.NumEdges())
		inSeeds := map[uint32]bool{}
		for _, s := range seeds {
			inSeeds[s] = true
		}
		posOf := make([]int, p.NumEdges()) // pattern hyperedge → matching-order position
		for pos, j := range plan.Order {
			posOf[j] = pos
		}
		want := bruteforce.CountAdmitted(h, p, func(j int, e uint32) bool {
			pos := posOf[j]
			if pos == 0 && seeds != nil && !inSeeds[e] {
				return false
			}
			return masks[pos] == nil || masks[pos].Has(e)
		})
		if want > 0 {
			nonzero++
		}
		for _, v := range Variants() {
			mode := oig.ModeMerged
			if v.Val == ValOverlapSimple {
				mode = oig.ModeSimple
			}
			vp := plan
			if mode != plan.Mode {
				if vp, err = oig.CompileWith(p, mode, oig.CompileOptions{Order: plan.Order, NoRestrictions: true}); err != nil {
					t.Fatal(err)
				}
			}
			for _, kernel := range []intset.Kernel{intset.Adaptive, intset.Scalar} {
				for _, workers := range []int{1, 3} {
					opts := Options{Gen: v.Gen, Val: v.Val, Kernel: kernel, Workers: workers, Seeds: seeds, Masks: masks, splitThreshold: 1}
					res, err := MineWithPlan(store, vp, opts)
					if err != nil {
						t.Fatalf("trial %d %s: %v", trial, v.Name, err)
					}
					if res.Ordered != want {
						t.Fatalf("trial %d %s kernel=%s workers=%d: Ordered=%d want %d\npattern %s order %v seeds %v",
							trial, v.Name, kernel.Name, workers, res.Ordered, want, p, vp.Order, seeds)
					}
				}
			}
		}
	}
	if nonzero < trials/4 {
		t.Fatalf("only %d of %d trials admitted an embedding; the draw tests nothing", nonzero, trials)
	}
}

// TestAnchoredRefusals: seeds or masks on a restricted plan, a mask count
// that does not match the pattern, and an out-of-range seed are refused;
// the plan-compiling entry point drops restrictions for anchored runs.
func TestAnchoredRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randHypergraph(rng, false)
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}}, nil) // |Aut| = 2
	restricted, err := CompilePlan(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restricted.Restricted {
		t.Fatal("symmetric pattern compiled without restrictions")
	}
	all := NewEdgeMask(h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		all.Set(uint32(e))
	}
	unrestricted, err := CompilePlan(store, p, Options{NoSymmetryBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan *oig.Plan
		opts Options
		want string
	}{
		{"restricted+masks", restricted, Options{Masks: []EdgeMask{all, all}}, "without symmetry-breaking"},
		{"restricted+seeds", restricted, Options{Seeds: []uint32{0}}, "without symmetry-breaking"},
		{"mask count", unrestricted, Options{Masks: []EdgeMask{all}}, "edge masks"},
		{"seed range", unrestricted, Options{Seeds: []uint32{uint32(h.NumEdges())}}, "out of range"},
	}
	for _, c := range cases {
		if _, err := MineWithPlan(store, c.plan, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := EstimateCount(store, p, 1, 1, Options{Seeds: []uint32{uint32(h.NumEdges())}}); err == nil {
		t.Error("EstimateCount accepted an out-of-range seed")
	}
	res, err := Mine(store, p, Options{Masks: []EdgeMask{all, all}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restricted {
		t.Fatal("Mine compiled a restricted plan for a masked run")
	}
	full, err := Mine(store, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered != full.Ordered {
		t.Fatalf("all-admitting masks changed the count: %d vs %d", res.Ordered, full.Ordered)
	}
}
