package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/store"
	"dpnfs/internal/store/cached"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/store/wal"
	"dpnfs/internal/workload"
)

// tinySizes keep every workload to a second or two while still giving each
// latency class enough samples for a p99.
var tinySizes = sizes{
	stream: streamParams{mounts: 2, fileSize: 256 << 10, reqSize: 64 << 10, blocks: 3, passRate: 100},
	small:  smallParams{mounts: 2, records: 256, recSize: 8 << 10, metaSize: 4 << 10, dropEvery: 32, txnRate: 1000},
	open:   openParams{mounts: 8, logical: 128, rate: 4, block: 256 << 10, fileSize: 2 << 20, window: 2 * time.Second, maxInFlight: 64},
}

// raceBuild is set under -race (race_test.go).
var raceBuild bool

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want []metricSpec) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(listed), len(want))
		}
		for i := range min(len(listed), len(want)) {
			if listed[i].Name != want[i].name || listed[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestWorkloadsEmitEveryMetric runs all three workloads at tiny sizes,
// untraced and traced, and checks that each prints every metric
// BENCHMARK.json lists, with its unit, and that no output check failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := runTiny(t, options{workload: name, seed: 7, dur: 2 * time.Second, trace: traced, sizes: tinySizes})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			listed := f.EndToEnd
			if traced {
				listed = f.PerLayer
			}
			known := map[string]bool{}
			for _, m := range listed {
				known[m.Name] = true
			}
			for metric := range res.Metrics {
				if !known[metric] {
					t.Errorf("%s trace=%v: emitted %s, which BENCHMARK.json does not list", name, traced, metric)
				}
			}
			for _, m := range listed {
				got, ok := res.Metrics[m.Name]
				if !ok && m.Name == "p99_ms" && raceBuild {
					continue
				}
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func runTiny(t *testing.T, o options) result {
	t.Helper()
	o.spans = t.TempDir()
	res, err := run(io.Discard, o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return res
}

// TestWrongExpectedByteFails is the negative test: a verifier expecting one
// wrong byte must turn every read into a failed operation, not a pass.
func TestWrongExpectedByteFails(t *testing.T) {
	z := tinySizes
	z.stream.wrongByte = true
	z.small.wrongByte = true
	for _, name := range []string{"tcp-stream", "tcp-smallops"} {
		res := runTiny(t, options{workload: name, seed: 7, dur: time.Second, sizes: z})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong expected byte: correct=%v failed=%d, want failures", name, res.Correct, res.Failed)
		}
	}
}

// TestWrappedStoreKeepsOptionalInterfaces checks that the traced run's
// store wrapper implements exactly the optional interfaces of the store it
// wraps, so the servers' type assertions take the same branches.
func TestWrappedStoreKeepsOptionalInterfaces(t *testing.T) {
	inners := map[string]store.Store{
		"mem":    mem.New(),
		"wal":    wal.New(wal.Config{Name: "t"}),
		"cached": cached.New(wal.Config{Name: "t"}),
	}
	for name, in := range inners {
		w := wrapStore(in, newTracer())
		for _, c := range []struct {
			iface string
			has   func(any) bool
		}{
			{iface: "Recoverable", has: func(s any) bool { _, ok := s.(store.Recoverable); return ok }},
			{iface: "Corruptible", has: func(s any) bool { _, ok := s.(store.Corruptible); return ok }},
			{iface: "TornWriter", has: func(s any) bool { _, ok := s.(store.TornWriter); return ok }},
			{iface: "Syncer", has: func(s any) bool { _, ok := s.(store.Syncer); return ok }},
		} {
			if c.has(in) != c.has(w) {
				t.Errorf("%s: inner implements %s = %v, wrapped = %v", name, c.iface, c.has(in), c.has(w))
			}
		}
	}
	if _, ok := wrapStore(mem.New(), newTracer()).(store.Corruptible); !ok {
		t.Error("wrapped mem store lost store.Corruptible")
	}
}

// TestOpenLoopMatchesLibrary checks that sim-openloop's own loop is the
// experiment workload.OpenLoop runs: same seed, same reads, bytes and
// virtual elapsed time.
func TestOpenLoopMatchesLibrary(t *testing.T) {
	p := tinySizes.open
	const seed = 11
	var ph phase
	mine, err := buildOpen(runConfig{seed: seed}, p, &ph)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := openWindow(mine, runConfig{seed: seed}, p, &ph, seed)
	mine.Close()
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: p.mounts, RSize: p.block, Seed: seed})
	want, err := workload.OpenLoop(cl, workload.OpenLoopConfig{
		LogicalClients: p.logical, RatePerClient: p.rate, Block: p.block, FileSize: p.fileSize,
		Window: p.window, MaxInFlight: p.maxInFlight, Seed: seed,
	})
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.reads != want.Reads || got.bytes != want.Bytes || got.elapsed != want.Elapsed {
		t.Errorf("perfbench open loop: %d reads, %d bytes, %s; workload.OpenLoop: %d reads, %d bytes, %s",
			got.reads, got.bytes, got.elapsed, want.Reads, want.Bytes, want.Elapsed)
	}
	if got.reads == 0 || got.reads != got.scheduled {
		t.Errorf("%d reads of %d scheduled arrivals", got.reads, got.scheduled)
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	var l latencies
	for i := 1; i <= 999; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if _, ok := l.quantile(0.99); ok {
		t.Error("999 samples: p99 has 9 beyond it, should not be reportable")
	}
	l.add(1000 * time.Millisecond)
	if v, ok := l.quantile(0.99); !ok || v != 0.990 {
		t.Errorf("1000 samples: p99 = %v, reportable %v; want 0.990 with 10 beyond", v, ok)
	}
	// Failed operations miss every bound: 20 failures in 1020 put the p99
	// on a failure.
	for i := 0; i < 20; i++ {
		l.fail()
	}
	if v, _ := l.quantile(0.99); !math.IsInf(v, 1) || l.succeeded() != 1000 {
		t.Errorf("with 20 failures: p99 = %v, succeeded %d; want +Inf, 1000", v, l.succeeded())
	}
}

// TestBlockQuantileConfinesAStall puts a stall in one of three blocks of
// 1000 samples: the whole-run p99 lands in the stall, the block median
// does not.
func TestBlockQuantileConfinesAStall(t *testing.T) {
	var l latencies
	for b := 0; b < 3; b++ {
		for i := 1; i <= 1000; i++ {
			d := time.Duration(i) * time.Microsecond
			if b == 1 && i > 950 {
				d = time.Second // 50 stalled samples in the middle block
			}
			l.add(d)
		}
	}
	if l.blocks() != 3 {
		t.Fatalf("%d blocks, want 3", l.blocks())
	}
	if v, _ := l.quantile(0.99); v != 1 {
		t.Errorf("whole-run p99 = %v, want the stall, 1 s", v)
	}
	if v, ok := l.blockQuantile(0.99); !ok || v != 990e-6 {
		t.Errorf("block p99 = %v, reportable %v; want 990 µs with ten beyond in every block", v, ok)
	}
}
