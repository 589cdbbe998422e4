// Command ohmbench-e2e is the repository's end-to-end benchmark. It runs one
// named workload against the real entry points — the ohminer library, an
// in-process ohmserve handler on loopback, the served stream API, and a
// durable cluster coordinator with in-process workers — checks every count
// it gets back, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run also records spans around each call the benchmark makes into a layer
// and reports the per-layer metrics, the layers' self times and the tracing
// overhead. Usage, from the repository root:
//
//	bash benchmark/run.sh --workload mine-batch --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --selftest
//
// See benchmark/README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

// report collects one run's metrics: the end-to-end metrics under their
// workload-specific names (printed), the generic end-to-end metrics every
// workload reports (the JSON result of an untraced run), and the per-layer
// metrics (the JSON result of a traced run).
type report struct {
	named  []namedMetric
	e2e    map[string]metric
	layers map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// metricE2E records a workload-named end-to-end metric (printed).
func (r *report) metricE2E(name string, v float64, unit string) {
	r.named = append(r.named, namedMetric{name, metric{v, unit}})
}

// generic records one of the end-to-end metrics every workload reports;
// execute refuses a name that is not one of them.
func (r *report) generic(name string, v float64) {
	for _, m := range e2eMetrics {
		if m.name == name {
			r.e2e[name] = metric{v, m.unit}
			return
		}
	}
	r.e2e[name] = metric{v, ""}
}

func (r *report) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics in BENCHMARK.json. Each workload
// reports all of them; what "operation" means is the workload's own unit
// of work (README.md, "End-to-end metrics").
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// gate counts attempted operations and checks their results. Any wrong
// count fails the operation, the run's "correct" flag and its exit code.
type gate struct {
	attempted  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64
	// corrupt, when set, offsets the next expected embedding count by one:
	// the self-test's proof that the gate catches a wrong count.
	corrupt atomic.Bool

	mu    sync.Mutex
	notes []string // guarded by mu; first few failures, for stderr
}

func (g *gate) note(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.notes) < 8 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// embeddings compares an embedding count the system returned with the
// expected one.
func (g *gate) embeddings(what string, got, want uint64) bool {
	if g.corrupt.CompareAndSwap(true, false) {
		want++
	}
	return g.want(what, got, want)
}

// want compares any other count (edges, epochs) with the expected one.
func (g *gate) want(what string, got, want uint64) bool {
	if got == want {
		return true
	}
	g.mismatches.Add(1)
	g.note("count mismatch: %s: got %d, want %d", what, got, want)
	return false
}

// op counts one attempted operation and whether it succeeded.
func (g *gate) op(ok bool) {
	g.attempted.Add(1)
	if !ok {
		g.failed.Add(1)
	}
}

// opErr counts one attempted operation that may have failed with err.
func (g *gate) opErr(what string, err error) bool {
	if err != nil {
		g.note("%s: %v", what, err)
	}
	g.op(err == nil)
	return err == nil
}

// stamp identifies what was measured and where.
type stamp struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Nproc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	Commit       string            `json:"commit"`
	SourceDigest string            `json:"source_digest"`
	Datasets     map[string]string `json:"datasets"`
	Notes        map[string]string `json:"notes,omitempty"`
}

// run is one workload execution's context.
type run struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool   // self-test sizes
	out      string // build-output directory
	tmp      string // this run's scratch directory, removed when it ends
	tr       *tracer
	g        *gate
	st       *stamp
}

func (c *run) dataset(d dataset) {
	c.st.Datasets[d.name] = fmt.Sprintf("%016x", d.h.Fingerprint())
}

func (c *run) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// catalogSeed draws the patterns: the mine-batch / cluster-job catalogue,
// the serve-mix hot pool and its fresh patterns. It is fixed so that every
// run mines the same pattern sets (README.md, "Inputs and seeds").
const catalogSeed = 1

type workloadFunc func(c *run, r *report) error

var workloads = map[string]workloadFunc{
	"mine-batch":  mineBatch,
	"serve-mix":   serveMix,
	"stream-feed": streamFeed,
	"cluster-job": clusterJob,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and completes its report: every per-layer
// metric is present (0 where the workload bypasses the layer) and, when
// tracing, the layers' self times.
func execute(c *run) (*report, error) {
	r := newReport()
	// Scratch directories are removed when the run ends, outside any
	// timed phase.
	c.tmp = filepath.Join(c.out, "tmp", fmt.Sprintf("run-%d-%s", os.Getpid(), c.workload))
	defer func() { _ = os.RemoveAll(c.tmp) }() // scratch only; nothing to report
	steal := hostSteal()
	if err := workloads[c.workload](c, r); err != nil {
		return nil, err
	}
	// Time the hypervisor took from the machine during the run: runs with
	// much of it read slow on every wall-clock metric.
	c.st.Notes["host_steal_s"] = fmt.Sprintf("%.2f", (hostSteal() - steal).Seconds())
	for _, m := range e2eMetrics {
		if _, ok := r.e2e[m.name]; !ok {
			return nil, fmt.Errorf("workload %s did not report %s", c.workload, m.name)
		}
	}
	if len(r.e2e) != len(e2eMetrics) {
		return nil, fmt.Errorf("workload %s reported an unknown end-to-end metric", c.workload)
	}
	if c.tr.on {
		self := c.tr.selfTimes()
		for _, l := range traceLayers {
			r.layer("self."+l+"_ms", self[l], "ms")
		}
	}
	for _, m := range layerMetrics {
		if _, ok := r.layers[m.name]; !ok {
			r.layer(m.name, 0, m.unit)
		}
	}
	return r, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: catalogue order, request order and relabellings, arrivals, retirements, standing queries")
		seconds  = flag.Float64("seconds", 20, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for temp files and span dumps")
		self     = flag.Bool("selftest", false, "run every workload briefly and check metrics and the count gate")
	)
	flag.Parse()
	if *self {
		if err := selftest(*out); err != nil {
			fmt.Fprintln(os.Stderr, "selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	c := newRun(*workload, *seed, *seconds, *trace == 1, false, *out)
	r, err := execute(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if c.tr.on {
		path := filepath.Join(c.out, "spans", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
		if err := c.tr.write(path, *c.st); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	ok := emit(os.Stdout, c, r)
	if !ok {
		os.Exit(1)
	}
}

func newRun(workload string, seed int64, seconds float64, trace, quick bool, out string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, quick: quick, out: out,
		tr: newTracer(trace),
		g:  &gate{},
		st: &stamp{
			Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit("."), SourceDigest: sourceDigest("."),
			Datasets: map[string]string{}, Notes: map[string]string{},
		},
	}
}

// emit prints the stamp, every metric by name and unit, and the JSON result
// as the last line. It reports whether the run was correct.
func emit(w io.Writer, c *run, r *report) bool {
	stampJSON, _ := json.Marshal(c.st) // plain strings and numbers; cannot fail
	fmt.Fprintf(w, "stamp %s\n", stampJSON)
	attempted, failed := c.g.attempted.Load(), c.g.failed.Load()
	fmt.Fprintf(w, "metric failed_frac %.6f ratio (%d of %d operations)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	for _, m := range r.named {
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, m.Value, m.Unit)
	}
	metrics := map[string]metric{}
	for _, m := range e2eMetrics {
		metrics[m.name] = r.e2e[m.name]
	}
	if c.tr.on {
		names := make([]string, 0, len(r.layers))
		for n := range r.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "layer %s %.6g %s\n", n, r.layers[n].Value, r.layers[n].Unit)
		}
		metrics = r.layers
	}
	for _, n := range c.g.notes {
		fmt.Fprintln(os.Stderr, "gate:", n)
	}
	correct := failed == 0 && c.g.mismatches.Load() == 0 && attempted > 0
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	fmt.Fprintf(w, "%s\n", res)
	return correct
}

// commit reads the checked-out commit from .git without running git; a
// checkout without .git reports "none" and is identified by its source
// digest instead.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout, so
// results from checkouts without git history still name the code measured.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var started = time.Now()

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}
