// Package engine implements the overlap-centric parallel execution engine
// of Sec. 4.4 — and, through its configuration matrix, every system variant
// the paper evaluates:
//
//	OHMiner   = GenDAL     + ValOverlap        (merged plan, Sec. 4)
//	OHM-G     = GenDAL     + ValProfiles       (Fig. 15)
//	OHM-V     = GenHGMatch + ValOverlap        (Fig. 13/15)
//	OHM-I     = GenHGMatch + ValOverlapSimple  (IEP only, Fig. 15)
//	HGMatch   = GenHGMatch + ValProfiles       (baseline, Sec. 2.3)
//
// The engine explores the search tree depth-first. Subtree tasks (a bound
// prefix plus a remaining candidate range) are distributed over worker
// goroutines by a work-stealing scheduler (scheduler.go): busy workers
// publish untouched sibling ranges near the top of the tree and idle workers
// steal them, generalizing the paper's first-level dynamic scheduling so
// skewed subtrees no longer serialize. Each worker owns all its scratch
// state, so the steady-state hot path allocates nothing. The intset kernel
// choice reproduces the SIMD ablation: Adaptive (density-aware containers,
// the default) vs Scalar (textbook merge).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/intset"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
)

// GenMode selects the candidate-generation strategy.
type GenMode int

const (
	// GenDAL intersects degree-pruned DAL adjacency groups (OHMiner,
	// Sec. 4.5).
	GenDAL GenMode = iota
	// GenHGMatch re-derives candidates from the incident hyperedges of the
	// individual vertices of already-matched hyperedges — the
	// vertex-granularity approach of HGMatch with its inherent redundancy
	// (Sec. 2.3, Fig. 2(a)).
	GenHGMatch
)

func (g GenMode) String() string {
	if g == GenHGMatch {
		return "hgmatch"
	}
	return "dal"
}

// ValMode selects the validation strategy.
type ValMode int

const (
	// ValOverlap executes the merged overlap-centric plan — full OHMiner
	// validation with merge + group pruning.
	ValOverlap ValMode = iota
	// ValOverlapSimple executes the simple (IEP-only) plan: every
	// non-implied overlap intersected and size-checked.
	ValOverlapSimple
	// ValProfiles recomputes per-vertex profiles of the whole partial
	// embedding and compares the multiset against the pattern's — the
	// hash-based vertex-granularity validation of HGMatch (Fig. 2(b)).
	ValProfiles
)

func (v ValMode) String() string {
	switch v {
	case ValOverlapSimple:
		return "overlap-simple"
	case ValProfiles:
		return "profiles"
	default:
		return "overlap"
	}
}

// Variant names the paper's system configurations.
type Variant struct {
	Name string
	Gen  GenMode
	Val  ValMode
}

// Variants returns the evaluation matrix of Sec. 5.3.
func Variants() []Variant {
	return []Variant{
		{Name: "OHMiner", Gen: GenDAL, Val: ValOverlap},
		{Name: "OHM-G", Gen: GenDAL, Val: ValProfiles},
		{Name: "OHM-V", Gen: GenHGMatch, Val: ValOverlap},
		{Name: "OHM-I", Gen: GenHGMatch, Val: ValOverlapSimple},
		{Name: "HGMatch", Gen: GenHGMatch, Val: ValProfiles},
	}
}

// VariantByName returns the named configuration.
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("engine: unknown variant %q", name)
}

// Options configures a mining run.
type Options struct {
	Gen GenMode
	Val ValMode
	// Kernel selects the set-operation family; the zero value means
	// intset.Adaptive (density-aware containers with SWAR bitmap kernels and
	// rarest-first k-way intersection). Pass intset.Scalar for the no-SIMD
	// ablation.
	Kernel intset.Kernel
	// Workers is the goroutine count; ≤0 means GOMAXPROCS.
	Workers int
	// Instrument enables the Stats counters and phase timers used by the
	// Fig. 3 reproduction (adds measurable overhead).
	Instrument bool
	// Limit stops the exploration once at least this many embeddings were
	// enumerated (0 = unlimited): ordered tuples on an unrestricted plan,
	// one canonical tuple per unordered embedding on a symmetry-broken one.
	// The final count may slightly exceed Limit because workers stop at the
	// next check.
	Limit uint64
	// OnEmbedding, when set, receives every enumerated embedding (hyperedge
	// IDs in matching order). On a symmetry-broken plan the engine
	// enumerates exactly one canonical tuple per unordered embedding, so
	// the callback fires once per unique embedding; compile with
	// NoSymmetryBreak to observe every ordered tuple. Calls are serialized
	// by the engine; the slice is reused and must be copied to retain.
	OnEmbedding func([]uint32)
	// Deadline aborts the exploration after roughly this duration (0 =
	// none); a run the deadline actually cut short is marked Truncated and
	// undercounts. Used by the benchmark harness to bound combinatorially
	// exploding cells.
	Deadline time.Duration
	// NoSymmetryBreak compiles the plan without symmetry-breaking
	// restrictions, so every ordered tuple is enumerated — |Aut(P)| per
	// unordered embedding. The ablation baseline of the sym experiment;
	// also what OnEmbedding consumers that need all orderings should set.
	// Only consulted by the plan-compiling entry points (Mine/MineContext/
	// CompilePlan); MineWithPlan follows the plan it is given.
	NoSymmetryBreak bool
	// DataAwareOrder derives the matching order from data-hypergraph
	// selectivity (fewest degree-matching data hyperedges first), the
	// ordering strategy the paper adopts from HGMatch (Sec. 4.3.2), instead
	// of the purely structural connectivity order.
	DataAwareOrder bool
	// Seeds, when non-nil, replaces the candidate pool of the first
	// matching-order position: a fresh run binds position 0 only to these
	// hyperedge IDs (each still checked against the step's degree, labels
	// and Masks[0]) instead of scanning the step's whole degree class. IDs
	// must be distinct and below the store's hyperedge count. Anchored
	// stream counting seeds anchor-first plans with one batch's changed
	// edges, so a run costs what the batch touches, not what the graph
	// holds.
	Seeds []uint32
	// Masks, when non-nil, holds one hyperedge mask per matching-order
	// position (len = pattern hyperedges): position t binds only hyperedges
	// whose bit is set in Masks[t]; a nil entry admits every hyperedge. The
	// check is one bit test per candidate.
	//
	// A run with Seeds or Masks is anchored: the admissible set differs per
	// position, so a symmetry-breaking restriction could reject the one
	// orbit member the seeds and masks admit. The plan-compiling entry
	// points therefore compile such runs without restrictions, and a
	// restricted plan with Seeds or Masks is refused.
	Masks []EdgeMask
	// Checkpoint, when set, makes the run crash-safe: on the CheckpointEvery
	// timer — and on every final stop (cancellation, deadline, limit) — the
	// driver quiesces the workers at their per-candidate stop check,
	// captures the global frontier of unexplored subtree tasks together
	// with the partial counters, and hands the snapshot to the sink. Sink
	// failures are counted in Stats.CheckpointErrors and do not abort the
	// run (the previous snapshot stays intact); mining continues or
	// finishes as it would have.
	Checkpoint checkpoint.Sink
	// CheckpointEvery is the quiesce period (0 = only on final stops).
	// Ignored without Checkpoint.
	CheckpointEvery time.Duration

	// splitThreshold is the minimum number of unexplored candidates that
	// must remain at a splittable position before half of them are
	// published (0 = defaultSplitThreshold). Tests lower it to force
	// publication and steals on small inputs.
	splitThreshold int
}

// Anchored reports whether the run restricts which hyperedges positions may
// bind (Seeds or Masks set); see Options.Masks.
func (o Options) Anchored() bool { return o.Seeds != nil || o.Masks != nil }

// checkAnchoring validates Seeds and Masks against the plan and store.
func checkAnchoring(store *dal.Store, plan *oig.Plan, opts Options) error {
	if !opts.Anchored() {
		return nil
	}
	if plan.Restricted {
		// A restriction can reject the one tuple of an orbit the seeds and
		// masks would have accepted (anchored counting binds specific edges
		// to specific positions), silently undercounting. The
		// plan-compiling entry points drop restrictions for anchored runs;
		// reject the combination for callers bringing their own plan.
		return errors.New("engine: Seeds/Masks require a plan compiled without symmetry-breaking restrictions (oig.CompileOptions.NoRestrictions)")
	}
	if opts.Masks != nil && len(opts.Masks) != plan.Pattern.NumEdges() {
		return fmt.Errorf("engine: %d edge masks for a %d-hyperedge pattern", len(opts.Masks), plan.Pattern.NumEdges())
	}
	n := uint32(store.Hypergraph().NumEdges())
	for _, s := range opts.Seeds {
		if s >= n {
			return fmt.Errorf("engine: seed hyperedge %d out of range [0,%d)", s, n)
		}
	}
	return nil
}

// EdgeMask is a bitset over hyperedge IDs, one bit per ID; IDs beyond its
// length are absent.
type EdgeMask []uint64

// NewEdgeMask returns an empty mask sized for IDs [0, n).
func NewEdgeMask(n int) EdgeMask { return make(EdgeMask, (n+63)/64) }

// Has reports whether e is in the mask.
func (m EdgeMask) Has(e uint32) bool {
	w := int(e >> 6)
	return w < len(m) && m[w]&(1<<(e&63)) != 0
}

// Set adds e, which must be within the mask's size.
func (m EdgeMask) Set(e uint32) { m[e>>6] |= 1 << (e & 63) }

// Clear removes e, which must be within the mask's size.
func (m EdgeMask) Clear(e uint32) { m[e>>6] &^= 1 << (e & 63) }

// Stats carries the instrumentation counters behind Fig. 3.
type Stats struct {
	// Candidates is the number of candidate hyperedges enumerated.
	Candidates uint64
	// Embeddings is the number of (partial) embeddings that passed
	// validation, across all depths.
	Embeddings uint64
	// SetOps counts intersection operations executed by overlap validation.
	SetOps uint64
	// NMFetches counts incident-hyperedge derivations (NM sets) performed
	// by HGMatch-style generation; RedundantNMFetches counts the repeated
	// ones (per extra overlap vertex — Fig. 3(b)).
	NMFetches          uint64
	RedundantNMFetches uint64
	// ProfileVertices counts vertices whose profile was computed by
	// profile validation; RedundantProfileVertices counts those sharing a
	// profile with an earlier vertex of the same validation (Fig. 3(c)).
	ProfileVertices          uint64
	RedundantProfileVertices uint64
	// GenTime/ValTime split the wall time between candidate generation and
	// validation (Fig. 3(a)); only tracked when Options.Instrument is set.
	GenTime time.Duration
	ValTime time.Duration
	// Scheduler counters (always tracked; they cost one non-atomic
	// increment each). Publishes counts sibling candidate ranges made
	// stealable, Steals counts tasks taken from a peer's deque, and
	// IdleSpins counts scans that found no work anywhere — together they
	// describe how much rebalancing a run needed and whether workers
	// starved.
	Publishes uint64
	Steals    uint64
	IdleSpins uint64
	// Checkpoint counters: snapshots successfully persisted, their total
	// size, and sink failures (a failed write leaves the previous snapshot
	// intact and the run keeps going). A resumed run continues the counters
	// of the snapshot it started from.
	Checkpoints      uint64
	CheckpointBytes  uint64
	CheckpointErrors uint64
	// Kernel-path counters: how many set operations (generation k-way
	// intersections and validation ops) ran word-parallel over bitmap
	// windows (KernelBitmap), probe-accelerated with one windowed operand
	// (KernelMixed), or on the plain array kernels (KernelArray). Always
	// tracked, like the scheduler counters; the kern ablation and ohmstat
	// surface them to show which representations a workload actually hits.
	KernelArray  uint64
	KernelBitmap uint64
	KernelMixed  uint64
}

// Add accumulates o into s. Exported for the consumers that merge partial
// Stats outside the engine — the cluster coordinator folds per-task worker
// reports into a job total with it.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.Embeddings += o.Embeddings
	s.SetOps += o.SetOps
	s.NMFetches += o.NMFetches
	s.RedundantNMFetches += o.RedundantNMFetches
	s.ProfileVertices += o.ProfileVertices
	s.RedundantProfileVertices += o.RedundantProfileVertices
	s.GenTime += o.GenTime
	s.ValTime += o.ValTime
	s.Publishes += o.Publishes
	s.Steals += o.Steals
	s.IdleSpins += o.IdleSpins
	s.Checkpoints += o.Checkpoints
	s.CheckpointBytes += o.CheckpointBytes
	s.CheckpointErrors += o.CheckpointErrors
	s.KernelArray += o.KernelArray
	s.KernelBitmap += o.KernelBitmap
	s.KernelMixed += o.KernelMixed
}

// Result reports one mining run.
type Result struct {
	// Ordered counts embeddings as ordered hyperedge tuples following the
	// matching order; every unordered embedding corresponds to exactly
	// Automorphisms ordered tuples. An unrestricted plan enumerates them
	// all; a symmetry-broken plan enumerates one canonical tuple per orbit
	// and reports Ordered = Unique × Automorphisms — identical for complete
	// runs, so the two plan families are count-compatible.
	Ordered uint64
	// Unique counts unordered embeddings. A symmetry-broken plan counts
	// them directly (exact even when truncated); an unrestricted plan
	// derives Unique = Ordered / Automorphisms, exact only for complete
	// runs — a truncated run that stopped mid-orbit leaves the leftover
	// ordered tuples in UniqueRemainder instead of silently rounding.
	Unique uint64
	// UniqueRemainder is Ordered mod Automorphisms on an unrestricted plan:
	// non-zero only when a limit/deadline/cancellation stopped the run in
	// the middle of an automorphism orbit, in which case Unique undercounts
	// by the partial orbit. Always zero on symmetry-broken plans and on
	// complete runs.
	UniqueRemainder uint64
	// Restricted reports whether the plan carried symmetry-breaking
	// restrictions (see oig.Plan.Restricted).
	Restricted bool
	// Automorphisms is the pattern's hyperedge automorphism count.
	Automorphisms int
	// Elapsed is the wall-clock mining time (excluding plan compilation).
	Elapsed time.Duration
	// Truncated reports that exploration stopped before exhausting the
	// search space — a worker observed the stop flag (Limit reached,
	// Deadline fired, or context cancelled) while unexplored work remained
	// — so Ordered may undercount. A run that reaches Limit on its very
	// last embedding explored everything and is NOT truncated.
	Truncated bool
	Stats     Stats
	Plan      *oig.Plan
}

// Mine compiles the appropriate plan for the options and runs it.
func Mine(store *dal.Store, p *pattern.Pattern, opts Options) (Result, error) {
	return MineContext(context.Background(), store, p, opts)
}

// MineContext is Mine with caller-controlled cancellation: when ctx is
// cancelled mid-run the workers unwind cooperatively and the call returns
// the partial Result accumulated so far together with ctx.Err().
func MineContext(ctx context.Context, store *dal.Store, p *pattern.Pattern, opts Options) (Result, error) {
	plan, err := CompilePlan(store, p, opts)
	if err != nil {
		return Result{}, err
	}
	return MineWithPlanContext(ctx, store, plan, opts)
}

// MineWithPlan runs a precompiled plan. The plan's mode must match the
// validation mode (merged for ValOverlap, simple for ValOverlapSimple;
// ValProfiles accepts either).
func MineWithPlan(store *dal.Store, plan *oig.Plan, opts Options) (Result, error) {
	return MineWithPlanContext(context.Background(), store, plan, opts)
}

// MineWithPlanContext is MineWithPlan with caller-controlled cancellation.
// Cancellation, the deadline, and the checkpoint period all end the round
// context, whose expiry sets the engine's single shared stop flag, so the
// mining hot path still pays exactly one atomic load per candidate
// regardless of whether a deadline, a limit, or a context is in play. On
// cancellation the partial Result is returned along with ctx.Err().
//
// The error says the context ended, not that the run was cut short:
// Result.Truncated does. A cancellation can land after the workers have
// drained every task; the run then returns ctx.Err() with complete counts,
// Truncated=false, and — on a checkpointed run — no final snapshot, since
// no frontier is left to save. Conversely a context that is already done
// explores nothing: the run is Truncated, and a checkpointed one snapshots
// its whole search space. Callers decide "partial or complete" (and
// whether a snapshot is retained) by Truncated alone.
func MineWithPlanContext(ctx context.Context, store *dal.Store, plan *oig.Plan, opts Options) (Result, error) {
	return mineResumable(ctx, store, plan, opts, nil)
}

// mineResumable is the mining driver behind MineWithPlanContext and
// ResumeWithPlanContext. Without a checkpoint sink it runs exactly one
// round of workers; with one, the run becomes a sequence of rounds
// separated by quiesce points: the round stops (checkpoint timer or a final
// stop reason), the workers drain their unexplored remainders into frontier
// tasks instead of abandoning them, the frontier is snapshotted to the
// sink, and — unless the stop was final — the next round reseeds from the
// frontier and continues. snap, when non-nil, is the validated snapshot to
// resume from; its frontier seeds round zero and its counters become the
// result's base.
func mineResumable(ctx context.Context, store *dal.Store, plan *oig.Plan, opts Options, snap *checkpoint.Snapshot) (Result, error) {
	switch opts.Val {
	case ValOverlap:
		if plan.Mode != oig.ModeMerged {
			return Result{}, errors.New("engine: ValOverlap needs a merged plan")
		}
	case ValOverlapSimple:
		if plan.Mode != oig.ModeSimple {
			return Result{}, errors.New("engine: ValOverlapSimple needs a simple plan")
		}
	case ValProfiles:
	default:
		return Result{}, fmt.Errorf("engine: unknown validation mode %d", opts.Val)
	}
	if plan.Labeled && !store.Hypergraph().Labeled() {
		return Result{}, errors.New("engine: labeled pattern on unlabeled hypergraph")
	}
	if plan.Pattern.EdgeLabeled() && !store.Hypergraph().EdgeLabeled() {
		return Result{}, errors.New("engine: hyperedge-labeled pattern on hypergraph without hyperedge labels")
	}
	kernel := opts.Kernel
	if kernel.Intersect == nil {
		kernel = intset.Adaptive
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	if err := checkAnchoring(store, plan, opts); err != nil {
		return Result{}, err
	}

	e := &shared{store: store, plan: plan, opts: opts, kernel: kernel}
	e.splitDepth, e.splitThreshold = splitParams(plan, opts)
	e.saveOnStop = opts.Checkpoint != nil

	// autFactor maps between the enumerated-tuple space the workers count in
	// and the ordered-embedding space snapshots and results report: a
	// symmetry-broken plan enumerates one canonical tuple per orbit of
	// |Aut| ordered embeddings, an unrestricted plan enumerates each ordered
	// embedding itself.
	autFactor := uint64(1)
	if plan.Restricted {
		autFactor = uint64(plan.Pattern.Automorphisms())
	}

	// Resume state: the snapshot's counters become the base the new
	// exploration accumulates on, and its frontier replaces the first-level
	// candidates as the seed work. Snapshot.Ordered is stored in ordered
	// space (see buildSnapshot's call site); divide it back to the
	// enumerated space the workers accumulate in. ValidateSnapshot already
	// proved divisibility for restricted plans.
	var (
		baseOrdered uint64
		baseStats   Stats
		tasks       []task
		seq         uint64
	)
	if snap != nil {
		baseOrdered = snap.Ordered / autFactor
		baseStats = unpackStats(snap.Stats)
		seq = snap.Seq
		tasks = make([]task, len(snap.Frontier))
		for i := range snap.Frontier {
			t := &snap.Frontier[i]
			tasks[i] = task{depth: int(t.Depth), prefix: t.Prefix, cands: t.Cands}
		}
	}

	start := time.Now()
	baseResult := func() Result {
		// Ordered temporarily holds the raw enumerated-tuple count;
		// finalizeCounts converts it to the reported Ordered/Unique pair.
		return Result{
			Automorphisms: plan.Pattern.Automorphisms(),
			Elapsed:       time.Since(start),
			Plan:          plan,
			Ordered:       baseOrdered,
			Stats:         baseStats,
		}
	}
	// finalizeCounts maps the enumerated-tuple count accumulated in
	// res.Ordered to the Result contract. A symmetry-broken plan enumerated
	// one canonical tuple per unordered embedding: Unique is that count
	// directly (exact even when truncated) and Ordered is reconstructed as
	// Unique × Automorphisms — for complete runs exactly what an
	// unrestricted enumeration would have counted. An unrestricted plan
	// enumerated ordered tuples: Unique is the floor division and any
	// mid-orbit remainder of a truncated run is surfaced honestly in
	// UniqueRemainder instead of vanishing.
	finalizeCounts := func(res Result) Result {
		aut := uint64(res.Automorphisms)
		res.Restricted = plan.Restricted
		if plan.Restricted {
			res.Unique = res.Ordered
			res.Ordered = res.Unique * aut
		} else {
			res.Unique = res.Ordered / aut
			res.UniqueRemainder = res.Ordered % aut
		}
		return res
	}

	// runCtx ends on caller cancellation or when the deadline fires; it
	// outlives the between-round flag reset of checkpointed runs, so the
	// driver consults runCtx.Err() to tell "quiesce for a checkpoint" from a
	// final stop. A fired deadline is not an error: only ctx.Err() is
	// returned, and the cut-short run reports Truncated.
	runCtx := ctx
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeoutCause(ctx, opts.Deadline, errDeadline)
		defer cancel()
	}

	var first []uint32
	if snap == nil {
		first = e.firstCandidates()
		if len(first) == 0 {
			return finalizeCounts(baseResult()), ctx.Err()
		}
	} else if len(tasks) == 0 {
		// The snapshot captured a fully drained run: nothing left to mine.
		return finalizeCounts(baseResult()), ctx.Err()
	}
	if ctx.Err() != nil {
		// An already-dead context explores nothing: with the stop flag set
		// up front every worker stops at its first candidate, so the run
		// reports itself truncated, and a checkpointed run hands its sink
		// the whole remaining search space instead of no snapshot at all.
		e.stopped.Store(true)
	}

	var found atomic.Uint64
	found.Store(baseOrdered) // Limit accounts embeddings counted before the snapshot
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(e, &found)
	}

	var (
		ckptWritten, ckptBytes, ckptErrors uint64
		frontier                           []task
		truncated                          bool
	)
	for round := 0; ; round++ {
		if round > 0 {
			// Reset the stop flag for the next round, then check for a final
			// stop that raced the reset: runCtx stays done once it is, so a
			// cancellation or deadline that fired in the gap is seen here.
			e.stopped.Store(false)
			if runCtx.Err() != nil {
				truncated = true
				break
			}
		}
		sched := e.runRound(runCtx, ws, first, tasks)

		e.panicMu.Lock()
		panicked := e.panicErr != nil
		e.panicMu.Unlock()

		if e.saveOnStop && !panicked {
			frontier = e.collectFrontier(ws, sched)
		} else {
			// Queued tasks no worker ever popped are definitively skipped.
			// (Work abandoned mid-subtree was already flagged by the worker
			// that unwound — or lost outright by a panicking one.)
			frontier = nil
			if sched.pending.Load() > 0 {
				e.abandoned.Store(true)
			}
		}

		limitReached := opts.Limit > 0 && found.Load() >= opts.Limit
		done := len(frontier) == 0
		if e.saveOnStop && !done && !panicked {
			// Snapshot every quiesce, including final stops: a cancelled
			// (SIGTERM'd) or limit-stopped run leaves a resumable snapshot
			// behind. The counters passed are the totals so far, checkpoint
			// accounting included, so a resumed run continues them.
			ordered := baseOrdered
			st := baseStats
			for _, w := range ws {
				ordered += w.count
				st.Add(w.stats)
			}
			st.Checkpoints += ckptWritten
			st.CheckpointBytes += ckptBytes
			st.CheckpointErrors += ckptErrors
			seq++
			// Snapshots carry Ordered in ordered-embedding space (the
			// documented contract), so the enumerated total is scaled by
			// |Aut| for restricted plans — exact, since every counted
			// canonical tuple stands for a whole orbit.
			if n, err := opts.Checkpoint.WriteSnapshot(e.buildSnapshot(seq, frontier, ordered*autFactor, st)); err != nil {
				// A failed write leaves the previous snapshot intact (sinks
				// are atomic); losing a checkpoint must not kill the run.
				ckptErrors++
			} else {
				ckptWritten++
				ckptBytes += uint64(n)
			}
		}
		if done || panicked || !e.saveOnStop || limitReached || runCtx.Err() != nil {
			truncated = truncated || len(frontier) > 0
			break
		}
		tasks, first = frontier, nil
	}

	res := baseResult()
	for _, w := range ws {
		res.Ordered += w.count
		res.Stats.Add(w.stats)
	}
	res.Stats.Checkpoints += ckptWritten
	res.Stats.CheckpointBytes += ckptBytes
	res.Stats.CheckpointErrors += ckptErrors
	res.Truncated = e.abandoned.Load() || truncated
	res = finalizeCounts(res)
	res.Elapsed = time.Since(start)
	e.panicMu.Lock()
	panicErr := e.panicErr
	e.panicMu.Unlock()
	if panicErr != nil {
		return res, panicErr
	}
	return res, ctx.Err()
}

// runRound spawns the round's workers, waits for them to finish or quiesce,
// and returns the round's scheduler for frontier collection and
// definitive-skip accounting. Round-zero work comes from first (fresh runs);
// resumed and post-checkpoint rounds carry their work in tasks.
//
// The round ends early when its context does: runCtx's cancellation or
// deadline, or — on a checkpointed run — the CheckpointEvery period. The
// context's AfterFunc is the one place that turns those into the shared
// stop flag.
func (e *shared) runRound(runCtx context.Context, ws []*worker, first []uint32, tasks []task) *scheduler {
	roundCtx := runCtx
	if e.saveOnStop && e.opts.CheckpointEvery > 0 {
		var cancel context.CancelFunc
		roundCtx, cancel = context.WithTimeout(runCtx, e.opts.CheckpointEvery)
		defer cancel()
	}
	stopOnDone := context.AfterFunc(roundCtx, func() { e.stopped.Store(true) })
	defer stopOnDone()

	sched := newScheduler(len(ws))
	if tasks != nil {
		sched.seedTasks(tasks)
	} else {
		sched.seed(first)
	}
	var wg sync.WaitGroup
	for wi, w := range ws {
		w.stop = false
		w.sched, w.id = sched, wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.recoverWorker()
			w.run()
		}()
	}
	wg.Wait()
	return sched
}

// splitParams resolves the scheduling knobs: the default two split levels,
// clamped so the last position is never splittable (splitting there
// publishes leaves, pure overhead), and the split threshold (0 means the
// default).
func splitParams(plan *oig.Plan, opts Options) (depth, threshold int) {
	depth = min(defaultSplitDepth, plan.Pattern.NumEdges()-1)
	if depth < 1 {
		depth = 1
	}
	threshold = opts.splitThreshold
	if threshold <= 0 {
		threshold = defaultSplitThreshold
	}
	return depth, threshold
}

// shared is the per-run state every worker uses. Everything except the
// cancellation flags is read-only during mining.
type shared struct {
	store  *dal.Store
	plan   *oig.Plan
	opts   Options
	kernel intset.Kernel
	// splitDepth/splitThreshold are the resolved scheduling knobs (see
	// splitParams).
	splitDepth     int
	splitThreshold int
	// stopped is the shared cooperative-cancellation flag: set when the
	// round context ends (cancellation, deadline, checkpoint period), by a
	// panicking worker, and by the worker that reaches Limit; checked once
	// per candidate by every worker (including thieves executing stolen
	// tasks).
	stopped atomic.Bool
	// abandoned records that some worker actually walked away from
	// unexplored work after observing stopped — the condition under which
	// Result.Truncated is reported. A run whose stop flag fires only after
	// (or exactly at) exhaustion stays un-truncated.
	abandoned atomic.Bool
	// saveOnStop switches the workers from abandoning unexplored work on a
	// stop to saving it as frontier tasks (worker.saveTask) — set when a
	// checkpoint sink is configured, so every quiesce point captures the
	// exact remaining search space.
	saveOnStop bool
	// panicErr holds the first worker panic, converted to an error so a
	// crashing user callback cannot take down the process.
	panicMu  sync.Mutex
	panicErr error // guarded by panicMu
	emitMu   sync.Mutex
}

// ErrWorkerPanic wraps a panic recovered on a mining worker goroutine;
// match with errors.Is to distinguish a crashed query (a server-side bug
// or a faulty user callback) from an invalid one.
var ErrWorkerPanic = errors.New("engine: worker panicked")

// errDeadline is the cause attached to the run context when
// Options.Deadline fires.
var errDeadline = errors.New("engine: deadline reached")

// recoverWorker converts a panic on a worker goroutine (most plausibly a
// user OnEmbedding callback, but any engine bug too) into a recorded error
// instead of a process death, and stops the remaining workers. The worker's
// own unexplored subtree is gone, so the run is marked abandoned.
func (e *shared) recoverWorker() {
	r := recover()
	if r == nil {
		return
	}
	e.panicMu.Lock()
	if e.panicErr == nil {
		e.panicErr = fmt.Errorf("%w: %v\n%s", ErrWorkerPanic, r, debug.Stack())
	}
	e.panicMu.Unlock()
	e.abandoned.Store(true)
	e.stopped.Store(true)
}

// firstCandidates enumerates candidates of the first pattern hyperedge:
// every data hyperedge with matching degree (and label histogram for
// labeled patterns) — or, on a seeded run, every seed passing the same
// checks and the first position's mask.
func (e *shared) firstCandidates() []uint32 {
	h := e.store.Hypergraph()
	st := &e.plan.Steps[0]
	cands := e.opts.Seeds
	if cands == nil {
		cands = e.store.EdgesWithDegree(st.Degree)
		if !e.plan.Labeled && st.EdgeLabel < 0 && e.opts.Masks == nil {
			return cands
		}
	}
	var mask EdgeMask
	if e.opts.Masks != nil {
		mask = e.opts.Masks[0]
	}
	var scratch []int
	if e.plan.Labeled {
		scratch = make([]int, h.NumLabels())
	}
	// Filter into a fresh slice: cands may be the DAL's shared degree-index
	// storage or the caller's seeds, which in-place filtering would corrupt.
	out := make([]uint32, 0, len(cands))
	for _, c := range cands {
		if e.opts.Seeds != nil && h.Degree(c) != st.Degree {
			continue
		}
		if st.EdgeLabel >= 0 && (!h.EdgeLabeled() || int64(h.EdgeLabel(c)) != st.EdgeLabel) {
			continue
		}
		if e.plan.Labeled && !labelsMatch(h, c, st.EdgeLabels, scratch) {
			continue
		}
		if mask != nil && !mask.Has(c) {
			continue
		}
		out = append(out, c)
	}
	return out
}
