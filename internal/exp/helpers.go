package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// newRand builds a deterministic RNG for workload sampling.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// measurement is one averaged mining result over a pattern set.
type measurement struct {
	AvgTime    time.Duration
	PerPattern []time.Duration // completed patterns only
	Ordered    uint64          // total across completed patterns
	Runs       int             // completed patterns
	Truncated  bool            // cell budget exhausted before all patterns ran
	GenFrac    float64         // instrumented runs only
	ValFrac    float64
	Stats      engine.Stats
}

// Progress, when non-nil, receives one line per measured cell so that long
// full-grid runs are observable (cmd/ohmbench points it at stderr).
var Progress io.Writer

func progressf(format string, args ...any) {
	if Progress != nil {
		fmt.Fprintf(Progress, format, args...)
	}
}

// mineSet mines every pattern with the given variant and returns the
// averaged wall time. Counts are cross-checked against check (when
// non-nil): a mismatch is a correctness bug, so it fails loudly.
func mineSet(store *dal.Store, pats []*pattern.Pattern, v engine.Variant, opts RunOpts, instrument bool, check []uint64) (measurement, []uint64, error) {
	start := time.Now()
	var m measurement
	defer func() {
		trunc := ""
		if m.Truncated {
			trunc = fmt.Sprintf(" (budget hit after %d)", m.Runs)
		}
		progressf("    %-8s %d patterns in %v%s\n", v.Name, len(pats), time.Since(start).Round(time.Millisecond), trunc)
	}()
	counts := make([]uint64, 0, len(pats))
	for i, p := range pats {
		var deadline time.Duration
		if opts.CellBudget > 0 {
			remaining := opts.CellBudget - time.Since(start)
			if remaining <= 0 {
				m.Truncated = true
				break
			}
			deadline = remaining
		}
		res, err := engine.Mine(store, p, engine.Options{
			Gen: v.Gen, Val: v.Val, Workers: opts.Workers, Instrument: instrument,
			Deadline: deadline,
		})
		if err != nil {
			return m, nil, fmt.Errorf("%s on pattern %d: %w", v.Name, i, err)
		}
		if res.Truncated {
			// The run hit the budget mid-pattern; its time and count are
			// incomparable, so drop it and stop.
			m.Truncated = true
			break
		}
		m.PerPattern = append(m.PerPattern, res.Elapsed)
		m.AvgTime += res.Elapsed
		m.Ordered += res.Ordered
		m.Runs++
		m.Stats.GenTime += res.Stats.GenTime
		m.Stats.ValTime += res.Stats.ValTime
		m.Stats.Candidates += res.Stats.Candidates
		m.Stats.SetOps += res.Stats.SetOps
		m.Stats.NMFetches += res.Stats.NMFetches
		m.Stats.RedundantNMFetches += res.Stats.RedundantNMFetches
		m.Stats.ProfileVertices += res.Stats.ProfileVertices
		m.Stats.RedundantProfileVertices += res.Stats.RedundantProfileVertices
		m.Stats.Publishes += res.Stats.Publishes
		m.Stats.Steals += res.Stats.Steals
		m.Stats.IdleSpins += res.Stats.IdleSpins
		if opts.Recorder != nil {
			opts.Recorder.Record(CellRecord{
				Variant:   v.Name,
				Pattern:   fmt.Sprintf("#%d %s", i, p),
				Workers:   opts.Workers,
				ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
				Ordered:   res.Ordered,
				Steals:    res.Stats.Steals,
				Publishes: res.Stats.Publishes,
				IdleSpins: res.Stats.IdleSpins,
			})
		}
		counts = append(counts, res.Ordered)
		if check != nil && i < len(check) && check[i] != res.Ordered {
			return m, nil, fmt.Errorf("%s disagrees on pattern %d: %d vs %d embeddings",
				v.Name, i, res.Ordered, check[i])
		}
	}
	if m.Runs > 0 {
		m.AvgTime /= time.Duration(m.Runs)
	}
	if tot := m.Stats.GenTime + m.Stats.ValTime; tot > 0 {
		m.GenFrac = float64(m.Stats.GenTime) / float64(tot)
		m.ValFrac = float64(m.Stats.ValTime) / float64(tot)
	}
	return m, counts, nil
}

// speedup formats a ratio of two durations.
func speedup(base, fast time.Duration) string {
	if fast <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(fast))
}

// align compares two measurements of the same pattern set fairly when one
// (or both) hit the cell budget: averages are recomputed over the common
// prefix of completed patterns. It returns the aligned averages, the common
// pattern count, and whether truncation occurred.
func align(a, b measurement) (avgA, avgB time.Duration, common int, truncated bool) {
	common = len(a.PerPattern)
	if len(b.PerPattern) < common {
		common = len(b.PerPattern)
	}
	truncated = a.Truncated || b.Truncated
	if common == 0 {
		return 0, 0, 0, truncated
	}
	for i := 0; i < common; i++ {
		avgA += a.PerPattern[i]
		avgB += b.PerPattern[i]
	}
	avgA /= time.Duration(common)
	avgB /= time.Duration(common)
	return avgA, avgB, common, truncated
}

// lowerBound renders a conservative speedup bound when the baseline could
// not finish even one pattern within the budget: the baseline spent at
// least the whole budget on the first pattern the fast system finished in
// PerPattern[0].
func lowerBound(fast measurement, budget time.Duration) (string, bool) {
	if budget <= 0 || len(fast.PerPattern) == 0 {
		return "", false
	}
	return fmt.Sprintf(">=%.0fx", float64(budget)/float64(fast.PerPattern[0])), true
}

// cellNote annotates a row measured on fewer patterns than sampled.
func cellNote(common, total int, truncated bool) string {
	if !truncated || common == total {
		return ""
	}
	return fmt.Sprintf(" [%d/%d]", common, total)
}

// ms formats a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	v := float64(d) / float64(time.Millisecond)
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.1fs", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0fms", v)
	default:
		return fmt.Sprintf("%.2fms", v)
	}
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// settingsFor returns the Table 4 pattern settings to use, trimmed in quick
// mode.
func settingsFor(opts RunOpts, quickNames ...string) []pattern.Setting {
	all := pattern.Settings()
	if !opts.Quick {
		return all
	}
	if len(quickNames) == 0 {
		quickNames = []string{"P2", "P3"}
	}
	var out []pattern.Setting
	for _, s := range all {
		for _, n := range quickNames {
			if s.Name == n {
				s.Count = 2
				out = append(out, s)
			}
		}
	}
	return out
}

// datasetsFor trims the dataset list in quick mode.
func datasetsFor(opts RunOpts, full []string, quick []string) []string {
	if opts.Quick {
		return quick
	}
	return full
}

// samplePatterns draws the pattern set for one dataset/setting pair with a
// deterministic per-pair seed.
func samplePatterns(store *dal.Store, set pattern.Setting, opts RunOpts, salt int64) ([]*pattern.Pattern, error) {
	return pattern.SampleSet(store.Hypergraph(), set, opts.Seed*1000003+salt)
}

// saltFor derives a stable salt from dataset tag and setting name.
func saltFor(tag, setting string) int64 {
	var s int64
	for _, r := range tag + "/" + setting {
		s = s*131 + int64(r)
	}
	return s
}
