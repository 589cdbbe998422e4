package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// TestCanonicalEmissionCount: on the default symmetry-broken plan the
// callback fires exactly Unique times, once per unordered embedding.
func TestCanonicalEmissionCount(t *testing.T) {
	h := hypergraph.MustBuild(8, [][]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
	}, nil)
	store := dal.Build(h)
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil) // 2 automorphisms
	var emitted [][]uint32
	res, err := Mine(store, p, Options{Workers: 1, OnEmbedding: func(c []uint32) {
		emitted = append(emitted, append([]uint32(nil), c...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restricted {
		t.Fatal("default plan for a symmetric pattern is not symmetry-broken")
	}
	if res.Ordered != 6 || res.Unique != 3 {
		t.Fatalf("ordered=%d unique=%d", res.Ordered, res.Unique)
	}
	if len(emitted) != int(res.Unique) {
		t.Fatalf("emitted %d canonical tuples, want %d", len(emitted), res.Unique)
	}
	requireNonAutomorphic(t, emitted)
}

// requireNonAutomorphic fails if two emitted tuples are automorphic images
// of each other. Such images bind the same hyperedges in a different order,
// so as sets the tuples must all be distinct.
func requireNonAutomorphic(t *testing.T, emitted [][]uint32) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range emitted {
		sorted := slices.Clone(c)
		slices.Sort(sorted)
		key := fmt.Sprint(sorted)
		if seen[key] {
			t.Fatalf("tuple %v repeats the unordered embedding %s", c, key)
		}
		seen[key] = true
	}
}

// TestCanonicalEmissionRandom: on random workloads with symmetric patterns
// the default plan's emission count equals Unique and no two emitted tuples
// are automorphic, for both 1 and 3 workers.
func TestCanonicalEmissionRandom(t *testing.T) {
	h := gen.MustGenerate(gen.Config{Name: "c", NumVertices: 80, NumEdges: 250,
		Communities: 5, MemberOverlap: 1, EdgeSizeMin: 2, EdgeSizeMax: 5, EdgeSizeMean: 3, Seed: 91})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(17))
	checkedSymmetric := false
	for trial := 0; trial < 20; trial++ {
		p, err := pattern.Sample(h, 2+rng.Intn(2), 2, 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.Automorphisms() > 1 {
			checkedSymmetric = true
		}
		for _, workers := range []int{1, 3} {
			var emitted [][]uint32
			res, err := Mine(store, p, Options{Workers: workers,
				OnEmbedding: func(c []uint32) { emitted = append(emitted, append([]uint32(nil), c...)) }})
			if err != nil {
				t.Fatal(err)
			}
			if res.Restricted != (p.Automorphisms() > 1) {
				t.Fatalf("trial %d: Restricted=%v for |Aut|=%d", trial, res.Restricted, p.Automorphisms())
			}
			if uint64(len(emitted)) != res.Unique {
				t.Fatalf("trial %d workers=%d: emitted %d want %d (aut=%d, pattern %s)",
					trial, workers, len(emitted), res.Unique, res.Automorphisms, p)
			}
			requireNonAutomorphic(t, emitted)
		}
	}
	if !checkedSymmetric {
		t.Log("warning: no symmetric pattern sampled; only identity automorphisms exercised")
	}
}

func TestAutomorphismPermsIdentityFirst(t *testing.T) {
	p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	perms := p.AutomorphismPerms()
	if len(perms) != 6 {
		t.Fatalf("triangle perms: %d", len(perms))
	}
	for i, v := range perms[0] {
		if i != v {
			t.Fatalf("identity not first: %v", perms[0])
		}
	}
}
