package main

import (
	"math"
	"runtime"
	rtm "runtime/metrics"
	"sync"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
)

// metricSpec is one metric's name and unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a run with --trace 0 prints, every workload
// alike.  README.md gives each one's meaning per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"mb_s", "MB/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

var (
	nfsOps      = []string{"OPEN", "CLOSE", "READ", "WRITE", "COMMIT", "LAYOUTGET", "LAYOUTCOMMIT", "REMOVE"}
	rpcServices = []string{cluster.ServiceMDS, cluster.ServiceDS, "pvfs-meta", "pvfs-io"}
)

// perLayer are the metrics a run with --trace 1 prints, named
// <module>.<what>.  Every workload prints all of them; a layer the
// workload does not reach reads 0.
var perLayer = func() []metricSpec {
	var l []metricSpec
	for o := opCreate; o <= opRemove; o++ {
		l = append(l, metricSpec{opSpec[o].metric + ".calls", "count"}, metricSpec{opSpec[o].metric + ".s", "s"})
	}
	l = append(l,
		metricSpec{"nfs.pagecache.hit_ratio", "ratio"},
		metricSpec{"nfs.readahead.chunks", "count"},
		metricSpec{"nfs.layout_cache.hit_ratio", "ratio"},
		metricSpec{"nfs.slot_wait.s", "s"})
	for _, o := range nfsOps {
		l = append(l, metricSpec{"nfs.op." + o + ".calls", "count"}, metricSpec{"nfs.op." + o + ".s", "s"})
	}
	l = append(l,
		metricSpec{"ioengine.requests", "count"},
		metricSpec{"ioengine.coalesced_ratio", "ratio"},
		metricSpec{"ioengine.split", "count"},
		metricSpec{"ioengine.slot_wait.s", "s"},
		metricSpec{"ioengine.occupancy.mean", "requests"})
	for _, s := range rpcServices {
		l = append(l, metricSpec{"rpc.calls." + s, "count"}, metricSpec{"rpc.call.s." + s, "s"}, metricSpec{"rpc.handle.s." + s, "s"})
	}
	l = append(l,
		metricSpec{"rpc.wire_bytes_per_payload_byte", "B/B"},
		metricSpec{"rpc.buf.borrowed", "count"},
		metricSpec{"rpc.buf.copies_avoided", "count"},
		metricSpec{"rpc.errors", "count"},
		metricSpec{"rpc.retries", "count"},
		metricSpec{"pvfs.storage.requests", "count"},
		metricSpec{"pvfs.storage.buffer_wait.s", "s"},
		metricSpec{"pvfs.meta.requests", "count"},
		metricSpec{"store.content.write.calls", "count"},
		metricSpec{"store.content.write.s", "s"},
		metricSpec{"store.content.read.calls", "count"},
		metricSpec{"store.content.read.s", "s"},
		metricSpec{"store.content.sync.calls", "count"},
		metricSpec{"store.meta.calls", "count"},
		metricSpec{"store.meta.s", "s"},
		metricSpec{"store.write_amplification", "B/B"},
		metricSpec{"sim.events", "count"},
		metricSpec{"sim.events_per_read", "events/read"},
		metricSpec{"sim.wall_ns_per_event", "ns"},
		metricSpec{"simnet.nic_busy_max_util", "ratio"},
		metricSpec{"simdisk.busy_max_util", "ratio"},
		metricSpec{"go.alloc_bytes_per_payload_byte", "B/B"},
		metricSpec{"go.allocs_per_op", "allocs/op"},
		metricSpec{"go.gc.cycles", "count"},
		metricSpec{"go.gc.pause_s", "s"},
		metricSpec{"trace.overhead", "ratio"})
	return l
}()

// Runtime metrics the probe reads.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtHeapLive   = "/gc/heap/live:bytes"
)

// probe is everything a layer metric is a difference of, read from outside
// the program: the cluster's registry and Stats, the sim kernel's event
// count, the process-wide RPC buffer counters and runtime/metrics.
type probe struct {
	reg               metrics.Snapshot
	borrowed, avoided uint64
	allocBytes        uint64
	allocObjs         uint64
	gcCycles          uint64
	gcPause           float64
	events            uint64
	stats             []cluster.NodeStats
	virt              time.Duration
	wall              time.Time
}

func takeProbe(cl *cluster.Cluster) probe {
	s := []rtm.Sample{{Name: rtAllocBytes}, {Name: rtAllocObjs}, {Name: rtGCCycles}, {Name: rtGCPauses}}
	rtm.Read(s)
	p := probe{
		reg:        cl.Metrics().Snapshot(),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcPause:    histTotal(s[3].Value.Float64Histogram()),
		events:     cl.K.EventsFired(),
		stats:      cl.Stats(),
		virt:       cl.Now(),
		wall:       time.Now(),
	}
	p.borrowed, p.avoided = rpc.BufCounters()
	return p
}

// histTotal approximates a runtime histogram's sum from bucket midpoints
// (the open-ended edge buckets count at their finite bound).
func histTotal(h *rtm.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// counter sums a counter family's series whose labels include want.
func counter(s metrics.Snapshot, name string, want ...string) float64 {
	var v float64
	forSeries(s, name, want, func(ss metrics.SeriesSnapshot) { v += ss.Value })
	return v
}

// hist sums a histogram family's (sum, count) over series matching want.
func hist(s metrics.Snapshot, name string, want ...string) (sum, count float64) {
	forSeries(s, name, want, func(ss metrics.SeriesSnapshot) {
		sum += ss.Sum
		count += float64(ss.Count)
	})
	return sum, count
}

// forSeries calls fn for each series of family name whose labels include
// every key=value pair in want (given flat: k1, v1, k2, v2, ...).
func forSeries(s metrics.Snapshot, name string, want []string, fn func(metrics.SeriesSnapshot)) {
	for _, fam := range s.Metrics {
		if fam.Name != name {
			continue
		}
	series:
		for _, ss := range fam.Series {
			for i := 0; i+1 < len(want); i += 2 {
				if ss.Labels[want[i]] != want[i+1] {
					continue series
				}
			}
			fn(ss)
		}
	}
}

// work is what the workload did between two probes, the denominators of
// the per-operation and per-byte layer metrics.
type work struct {
	ops     int64 // application operations completed
	reads   int64 // read operations (sim.events_per_read)
	payload int64 // application bytes written plus read
	written int64 // application bytes written (store write amplification)
}

// layerValues computes every registry-, kernel- and runtime-derived layer
// metric from two probes.  The tracer-derived ones (cluster.*, store.*)
// are added by tracerValues.
func layerValues(a, b probe, w work) map[string]float64 {
	v := map[string]float64{}
	d := func(name string, want ...string) float64 {
		return counter(b.reg, name, want...) - counter(a.reg, name, want...)
	}
	dh := func(name string, want ...string) (float64, float64) {
		s1, c1 := hist(b.reg, name, want...)
		s0, c0 := hist(a.reg, name, want...)
		return s1 - s0, c1 - c0
	}
	hits, misses := d("nfs_client_pagecache_hits_total"), d("nfs_client_pagecache_misses_total")
	v["nfs.pagecache.hit_ratio"] = ratio(hits, hits+misses)
	v["nfs.readahead.chunks"] = d("nfs_client_readahead_chunks_total")
	lhits, lgets := d("nfs_client_layout_cache_hits_total"), d("nfs_client_ops_total", "op", "LAYOUTGET")
	v["nfs.layout_cache.hit_ratio"] = ratio(lhits, lhits+lgets)
	v["nfs.slot_wait.s"], _ = dh("nfs_client_slot_wait_seconds")
	for _, o := range nfsOps {
		v["nfs.op."+o+".calls"] = d("nfs_client_ops_total", "op", o)
		v["nfs.op."+o+".s"], _ = dh("nfs_client_op_seconds", "op", o)
	}

	reqs, coalesced := d("ioengine_requests_total"), d("ioengine_coalesced_total")
	v["ioengine.requests"] = reqs
	v["ioengine.coalesced_ratio"] = ratio(coalesced, reqs+coalesced)
	v["ioengine.split"] = d("ioengine_split_total")
	v["ioengine.slot_wait.s"], _ = dh("ioengine_slot_wait_seconds")
	occSum, occN := dh("ioengine_window_occupancy")
	v["ioengine.occupancy.mean"] = ratio(occSum, occN)

	var wire float64
	for _, s := range rpcServices {
		v["rpc.calls."+s] = d("rpc_client_calls_total", "service", s)
		v["rpc.call.s."+s], _ = dh("rpc_client_call_seconds", "service", s)
		v["rpc.handle.s."+s], _ = dh("rpc_server_handle_seconds", "service", s)
		wire += d("rpc_client_bytes_sent_total", "service", s) + d("rpc_client_bytes_received_total", "service", s)
	}
	v["rpc.wire_bytes_per_payload_byte"] = ratio(wire, float64(w.payload))
	// rpc.BufCounters counts borrowed opaques and skipped copies, not bytes.
	v["rpc.buf.borrowed"] = float64(b.borrowed - a.borrowed)
	v["rpc.buf.copies_avoided"] = float64(b.avoided - a.avoided)
	v["rpc.errors"] = d("rpc_client_errors_total")
	v["rpc.retries"] = d("rpc_client_retries_total")

	v["pvfs.storage.requests"] = d("pvfs_storage_requests_total")
	v["pvfs.storage.buffer_wait.s"], _ = dh("pvfs_storage_buffer_wait_seconds")
	v["pvfs.meta.requests"] = d("pvfs_meta_requests_total")

	events := float64(b.events - a.events)
	v["sim.events"] = events
	v["sim.events_per_read"] = ratio(events, float64(w.reads))
	v["sim.wall_ns_per_event"] = ratio(float64(b.wall.Sub(a.wall).Nanoseconds()), events)
	span := (b.virt - a.virt).Seconds()
	for i := range b.stats {
		s1, s0 := b.stats[i], a.stats[i]
		nic := math.Max((s1.NICTx - s0.NICTx).Seconds(), (s1.NICRx - s0.NICRx).Seconds())
		v["simnet.nic_busy_max_util"] = math.Max(v["simnet.nic_busy_max_util"], ratio(nic, span))
		v["simdisk.busy_max_util"] = math.Max(v["simdisk.busy_max_util"], ratio((s1.DiskBusy-s0.DiskBusy).Seconds(), span))
	}

	v["go.alloc_bytes_per_payload_byte"] = ratio(float64(b.allocBytes-a.allocBytes), float64(w.payload))
	v["go.allocs_per_op"] = ratio(float64(b.allocObjs-a.allocObjs), float64(w.ops))
	v["go.gc.cycles"] = float64(b.gcCycles - a.gcCycles)
	v["go.gc.pause_s"] = b.gcPause - a.gcPause
	return v
}

// tracerValues adds the traced run's cluster.* and store.* metrics.
func tracerValues(v map[string]float64, t *tracer, w work) {
	for o := op(0); o < numOps; o++ {
		v[opSpec[o].metric+".calls"] = float64(t.calls[o].Load())
		if o != opStoreSync {
			v[opSpec[o].metric+".s"] = float64(t.nanos[o].Load()) / 1e9
		}
	}
	v["store.write_amplification"] = ratio(float64(t.stored.Load()), float64(w.written))
}

// heapSampler records the peak live heap while a measured phase runs: the
// bytes each garbage collection found reachable, and a forced collection's
// at the end.  Garbage awaiting collection is left out, so the figure is
// the program's footprint, not the collector's pacing.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []rtm.Sample{{Name: rtHeapLive}}
	rtm.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	h.sample()
	return float64(h.peak) / (1 << 20)
}
