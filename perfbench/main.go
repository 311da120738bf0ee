// Command perfbench is the repository's benchmark: it builds a Direct-pNFS
// cluster through the public cluster API, drives one workload against it
// for a fixed time, checks every output, and prints each metric by name
// with its unit.  The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, untraced then traced, and the metrics are the
// per-layer ones plus trace.overhead.  README.md maps each metric to its
// layer and workload.  Run it from the repository root:
//
//	bash perfbench/run.sh --workload tcp-stream --seed 1 --seconds 24 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/rpc"
)

// sizes holds every workload's parameters; the command uses defaultSizes,
// the tests smaller ones.
type sizes struct {
	stream streamParams
	small  smallParams
	open   openParams
}

var defaultSizes = sizes{defaultStream, defaultSmall, defaultOpen}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"tcp-stream", "tcp-smallops", "sim-openloop"}

// gomaxprocs is the number of scheduler threads each workload's in-process
// cluster runs on; README.md, "Scheduler threads", says why.
var gomaxprocs = map[string]int{"tcp-stream": 1, "tcp-smallops": 2, "sim-openloop": 1}

// workload returns the named workload's runner and its parameters.
func (z sizes) workload(name string) (func(runConfig) (*phase, error), fmt.Stringer, bool) {
	switch name {
	case "tcp-stream":
		return func(rc runConfig) (*phase, error) { return runStream(rc, z.stream) }, z.stream, true
	case "tcp-smallops":
		return func(rc runConfig) (*phase, error) { return runSmall(rc, z.small) }, z.small, true
	case "sim-openloop":
		return func(rc runConfig) (*phase, error) { return runOpen(rc, z.open) }, z.open, true
	}
	return nil, nil, false
}

// runConfig is what every workload gets from the command line.
type runConfig struct {
	seed   int64
	dur    time.Duration // nominal length of the measured phase
	setups int           // set-ups to time; the last one is measured
	trace  *tracer       // nil: untraced
}

// quota is the work a measured phase does: perSecond, a workload's rate on
// an unloaded host, times the phase's nominal length.  The work depends on
// --seconds alone, not on how fast the shared host happens to be, so the
// operation counts and the heap they leave behind repeat from run to run;
// on a slow host the phase lasts longer instead.
func (rc runConfig) quota(perSecond float64) int { return max(1, int(perSecond*rc.dur.Seconds())) }

// overrun bounds a measured phase that falls behind its quota: it stops at
// the first operation boundary after overrun times its nominal length.
const overrun = 4

// errMismatch marks a read whose bytes (or size) differ from what the
// workload last wrote there.
var errMismatch = errors.New("content does not match the last write")

// tally counts one client's operations and failed checks.  An operation
// that errors, reads short or reads the wrong bytes is one failure; it is
// counted and the run goes on.
type tally struct {
	attempted, failed int64
	firstErr          string
}

// check counts one operation and reports ok.  The arguments describe the
// operation for the first failure's message; they are formatted only then.
func (t *tally) check(ok bool, what, path string, off int64, err error) bool {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = fmt.Sprintf("%s %s@%d: %v", what, path, off, err)
		}
	}
	return ok
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// open opens path through the mount, timed when tracing.
func open(ctx *rpc.Ctx, m *cluster.Mount, t *tracer, path string) (*cluster.File, error) {
	sp := t.begin(ctx, opOpen)
	defer sp.end()
	return m.Open(ctx, path)
}

// closeFile closes f through the mount and counts the close.
func closeFile(ctx *rpc.Ctx, m *cluster.Mount, t *tracer, s *tally, f *cluster.File) {
	sp := t.begin(ctx, opClose)
	err := m.Close(ctx, f)
	sp.end()
	s.check(err == nil, "close", "", 0, err)
}

// fill writes deterministic pseudo-random bytes for (seed, a, b, c) into
// buf: the workloads' seeded content.
func fill(buf []byte, seed int64, a, b, c uint64) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb ^ c*0x2545f4914f6cdd1d | 1
	var word [8]byte
	for i := 0; i < len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(word[:], x)
		copy(buf[i:], word[:])
	}
}

// onEach adapts a per-mount set-up step to setupRepeated.
func onEach(fn func(*rpc.Ctx, *cluster.Mount, int) error) func(*cluster.Cluster) error {
	return func(cl *cluster.Cluster) error {
		_, err := cl.Run(fn)
		return err
	}
}

// setupRepeated builds the cluster and runs prep against it rc.setups
// times, timing each, and returns the last cluster for the measured phase.
// Set-up time is cluster build, mounts and file creation or prefill; the
// workload generates its content before calling this.
func setupRepeated(rc runConfig, cfg cluster.Config, prep func(*cluster.Cluster) error) (*cluster.Cluster, []float64, error) {
	if rc.trace != nil {
		cfg.MetadataBackend = timedFactory(rc.trace)
		cfg.ContentBackend = timedFactory(rc.trace)
	}
	var cl *cluster.Cluster
	var secs []float64
	for s := 0; s < rc.setups || s == 0; s++ {
		if cl != nil {
			cl.Close()
		}
		runtime.GC() // every set-up starts from the same collected heap
		start := time.Now()
		cl = cluster.New(cfg)
		if err := prep(cl); err != nil {
			cl.Close()
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return cl, secs, nil
}

// measured is one measured phase: its start and wall time, the probes
// around it and the peak heap during it.
type measured struct {
	start         time.Time
	wall, cpu     time.Duration
	before, after probe
	peakHeapMB    float64
}

// measure runs fn as the measured phase, which should do its quota and
// stop early only at the first operation boundary after deadline, overrun
// times rc.dur from its start.
func measure(cl *cluster.Cluster, rc runConfig, fn func(deadline time.Time) error) (measured, error) {
	runtime.GC()
	if rc.trace != nil {
		rc.trace.reset()
	}
	m := measured{before: takeProbe(cl)}
	hs := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	err := fn(start.Add(overrun * rc.dur))
	m.start, m.wall = start, time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.peakHeapMB = hs.finish()
	m.after = takeProbe(cl)
	return m, err
}

// phase is one run of a workload: its counts, timings and metrics.
type phase struct {
	tally
	setup []float64
	measured
	work     work
	e2e      map[string]float64
	details  []string
	problems []string // failed checks that are not operations (determinism)
	// fingerprint summarizes a modelled outcome that must not depend on
	// tracing; empty for wall-clock workloads.
	fingerprint string
	// wallOps is operations per wall-clock second, the rate trace.overhead
	// compares between the untraced and the traced run.
	wallOps float64
}

// finish sets the end-to-end metrics of a wall-clock workload from all,
// every operation it counts, and head, its headline latency class: the
// operation rate, the payload rate at the run's payload per operation, and
// head's percentiles, each a median over blocks of the run.
func (ph *phase) finish(all, head *latencies) {
	ph.wallOps = ratio(float64(ph.work.ops), ph.wall.Seconds())
	rate := all.blockRate(ph.start)
	ph.e2e = map[string]float64{
		"ops_per_s": rate,
		"mb_s":      rate * ratio(float64(ph.work.payload)/1e6, float64(ph.work.ops)),
	}
	ph.setLatency(head, true)
}

// quantiles returns lat's per-block quantile function when blocked, its
// whole-run one otherwise.
func quantiles(lat *latencies, blocked bool) func(float64) (float64, bool) {
	if blocked {
		return lat.blockQuantile
	}
	return lat.quantile
}

// setLatency sets p50_ms and p99_ms from lat.  The p99 is left out when
// fewer than ten samples lie beyond it.  A percentile that lands on a
// failed operation is +Inf, which JSON cannot carry; it is reported as the
// largest float64 instead.
func (ph *phase) setLatency(lat *latencies, blocked bool) {
	ms := func(v float64) float64 { return min(v*1e3, math.MaxFloat64) }
	quantile := quantiles(lat, blocked)
	if lat.count() > 0 {
		v, _ := quantile(0.50)
		ph.e2e["p50_ms"] = ms(v)
	}
	if v, ok := quantile(0.99); ok {
		ph.e2e["p99_ms"] = ms(v)
	}
}

func (ph *phase) detail(name string, v float64, unit, note string) {
	line := fmt.Sprintf("%-28s %14.6g %-8s", name, v, unit)
	if note != "" {
		line += " " + note
	}
	ph.details = append(ph.details, strings.TrimRight(line, " "))
}

// latencyDetail reports a latency class's median and p99 with the sample
// count, and says so when the p99 lacks ten samples beyond it.
func (ph *phase) latencyDetail(prefix string, lat *latencies, blocked bool) {
	n := fmt.Sprintf("(n=%d, failed %d)", lat.count(), lat.failures)
	if blocked && lat.blocks() >= 2 {
		n = fmt.Sprintf("(n=%d, failed %d, median of %d blocks)", lat.count(), lat.failures, lat.blocks())
	}
	quantile := quantiles(lat, blocked)
	p50, _ := quantile(0.50)
	ph.detail(prefix+"_p50_ms", p50*1e3, "ms", n)
	if p99, ok := quantile(0.99); ok {
		ph.detail(prefix+"_p99_ms", p99*1e3, "ms", n)
	} else {
		ph.note("%s_p99_ms not reported: fewer than ten samples beyond it %s", prefix, n)
	}
}

func (ph *phase) note(format string, args ...any) {
	ph.details = append(ph.details, "note: "+fmt.Sprintf(format, args...))
}

func (ph *phase) correct() bool { return ph.failed == 0 && len(ph.problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	spans    string // directory for the traced run's spans
	sizes    sizes
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 24, "nominal length of the measured phase: it sets each workload's quota of work")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: untraced then traced run, per-layer metrics")
	flag.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and no other arguments")
		os.Exit(2)
	}
	o.dur, o.trace, o.sizes = time.Duration(seconds)*time.Second, trace == 1, defaultSizes
	runtime.GOMAXPROCS(gomaxprocs[o.workload])
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed")
		os.Exit(1)
	}
}

// run executes one invocation, prints its report and, as the last line,
// its result.  It returns an error, and prints no result, when the run
// could not be made at all (a failed set-up).
func run(out io.Writer, o options) (result, error) {
	runW, params, ok := o.sizes.workload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seed == 0 {
		o.seed = 1 // cluster.Config reads seed 0 as its default, 1
	}
	fmt.Fprintf(out, "workload %s  seed %d  seconds %g  trace %v\n", o.workload, o.seed, o.dur.Seconds(), o.trace)
	fmt.Fprintf(out, "params   %s\n", params)
	fmt.Fprintf(out, "provenance %s\n", provenance())

	res := result{Metrics: map[string]metricValue{}}
	var phases []*phase
	if !o.trace {
		ph, err := runW(runConfig{seed: o.seed, dur: o.dur, setups: 9})
		if err != nil {
			return result{}, err
		}
		phases = append(phases, ph)
		report(out, "run", ph)
		vals := ph.e2e
		vals["setup_s"] = median(ph.setup)
		vals["peak_heap_mb"] = ph.peakHeapMB
		for _, m := range endToEnd {
			if v, ok := vals[m.name]; ok {
				res.Metrics[m.name] = metricValue{v, m.unit}
			}
		}
	} else {
		base, err := runW(runConfig{seed: o.seed, dur: o.dur / 2, setups: 1})
		if err != nil {
			return result{}, err
		}
		report(out, "untraced", base)
		t := newTracer()
		traced, err := runW(runConfig{seed: o.seed, dur: o.dur / 2, setups: 1, trace: t})
		if err != nil {
			return result{}, err
		}
		if base.fingerprint != traced.fingerprint {
			traced.problems = append(traced.problems, "tracing changed the modelled outcome: "+traced.fingerprint+" vs "+base.fingerprint)
		}
		report(out, "traced", traced)
		phases = append(phases, base, traced)
		vals := layerValues(traced.before, traced.after, traced.work)
		tracerValues(vals, t, traced.work)
		vals["trace.overhead"] = ratio(base.wallOps, traced.wallOps) - 1
		if path, err := t.writeSpans(o.spans, fmt.Sprintf("%s-seed%d.csv", o.workload, o.seed)); err != nil {
			fmt.Fprintf(out, "spans not written: %v\n", err)
		} else {
			fmt.Fprintf(out, "spans    %s\n", path)
		}
		fmt.Fprintln(out, "per-layer (traced run):")
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, vals[m.name], m.unit)
		}
	}
	res.Correct = true
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Correct = res.Correct && ph.correct()
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// report prints one phase: counts, the end-to-end metrics, the workload's
// own named metrics and the registry-derived layer metrics.
func report(out io.Writer, label string, ph *phase) {
	fmt.Fprintf(out, "[%s] attempted %d failed %d measured %.3fs setups %v\n",
		label, ph.attempted, ph.failed, ph.wall.Seconds(), roundAll(ph.setup))
	if ph.firstErr != "" {
		fmt.Fprintf(out, "[%s] first failure: %s\n", label, ph.firstErr)
	}
	for _, p := range ph.problems {
		fmt.Fprintf(out, "[%s] check failed: %s\n", label, p)
	}
	fmt.Fprintf(out, "[%s] %-26s %14.6g s\n", label, "setup_s", median(ph.setup))
	fmt.Fprintf(out, "[%s] %-26s %14.6g MiB\n", label, "peak_heap_mb", ph.peakHeapMB)
	fmt.Fprintf(out, "[%s] %-26s %14.6g s\n", label, "cpu_s", ph.cpu.Seconds())
	fmt.Fprintf(out, "[%s] %-26s %14.6g MB/cpu-s\n", label, "mb_per_cpu_s", ratio(float64(ph.work.payload)/1e6, ph.cpu.Seconds()))
	for _, d := range ph.details {
		fmt.Fprintf(out, "[%s] %s\n", label, d)
	}
	vals := layerValues(ph.before, ph.after, ph.work)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		if vals[k] != 0 {
			fmt.Fprintf(&b, " %s=%.4g", k, vals[k])
		}
	}
	fmt.Fprintf(out, "[%s] registry:%s\n", label, b.String())
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4)) / 1e4
	}
	return out
}

// provenance describes the build and host as one JSON object: the git
// commit when the tree is a checkout, a digest of the Go sources always.
func provenance() string {
	sha := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	p := map[string]any{
		"git_sha":       sha,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, _ := json.Marshal(p) // a map of strings and ints always marshals
	return string(b)
}

// sourceDigest hashes every .go, go.mod and BENCHMARK.json file under
// root (skipping dot-directories), so a result names the code it measured
// even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "BENCHMARK.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
