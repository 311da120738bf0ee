package main

import (
	"fmt"
	"math/rand"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
)

// openParams sizes the sim-openloop workload: the sweep figure's shape
// (8 mounts, 256 KB reads with RSize 256 KB, 4 reads/s per logical
// client), just below its knee.
type openParams struct {
	mounts      int
	logical     int
	rate        float64 // reads/s per logical client
	block       int64
	fileSize    int64
	window      time.Duration // virtual arrival window
	maxInFlight int
}

var defaultOpen = openParams{mounts: 8, logical: 256, rate: 4, block: 256 << 10, fileSize: 8 << 20,
	window: 15 * time.Second, maxInFlight: 64}

func (p openParams) String() string {
	return fmt.Sprintf("mounts=%d logical-clients=%d rate=%g/s block=%dKiB rsize=%dKiB file=%dMiB window=%s(virtual) max-inflight=%d transport=sim",
		p.mounts, p.logical, p.rate, p.block>>10, p.block>>10, p.fileSize>>20, p.window, p.maxInFlight)
}

// openOutcome is one window's modelled result; a window rerun with the same
// seed on a fresh cluster must produce an identical outcome.
type openOutcome struct {
	scheduled, reads uint64
	bytes            int64
	elapsed          time.Duration // virtual
	p50, p99         float64       // virtual seconds, exact
	events           uint64
}

// runOpen is sim-openloop: the open-loop experiment of workload.OpenLoop,
// written against the cluster API so each read's exact virtual latency is
// kept (the library reports bucket bounds).  Logical clients' Poisson
// arrivals are superposed per mount; each arrival opens the mount's file,
// reads one seeded random block and closes, and its latency runs from the
// scheduled arrival, so the generator is never late.
//
// One window's percentiles vary from seed to seed with the arrival bursts,
// so a phase runs one window per second of rc.dur back to back on one
// cluster, each with its own arrival sub-seed, and pools their samples; the
// count depends on rc.dur alone, which keeps the modelled results a
// function of the seed.  Window 0 then runs again on a fresh cluster and
// must reproduce its outcome exactly.  A traced phase runs window 0 once:
// its layer metrics describe one window.
func runOpen(rc runConfig, p openParams) (*phase, error) {
	windows := max(1, int(rc.dur/time.Second))
	if rc.trace != nil {
		windows = 1
	}
	ph := &phase{}
	cl, err := buildOpen(rc, p, ph)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var rates []float64
	var reads uint64
	var wall time.Duration
	var lat latencies
	var pooled, first openOutcome
	for k := 0; k < windows; k++ {
		out, m, samples, err := openWindow(cl, rc, p, ph, rc.seed+int64(k)*104729)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			first, ph.measured = out, m
			ph.fingerprint = fmt.Sprintf("%+v", out)
		}
		rates = append(rates, ratio(float64(out.reads), m.wall.Seconds()))
		reads, wall = reads+out.reads, wall+m.wall
		ph.peakHeapMB = max(ph.peakHeapMB, m.peakHeapMB)
		lat.merge(&samples)
		pooled.scheduled += out.scheduled
		pooled.reads += out.reads
		pooled.bytes += out.bytes
		pooled.elapsed += out.elapsed
		pooled.events += out.events
	}
	if rc.trace == nil {
		again, err := buildOpen(runConfig{seed: rc.seed, setups: 1}, p, ph)
		if err != nil {
			return nil, err
		}
		out, _, _, err := openWindow(again, rc, p, ph, rc.seed)
		again.Close()
		if err != nil {
			return nil, err
		}
		if out != first {
			ph.problems = append(ph.problems, fmt.Sprintf("window 0 rerun with the same seed differs: %+v vs %+v", out, first))
		}
	}
	if pooled.reads != pooled.scheduled {
		ph.problems = append(ph.problems, fmt.Sprintf("%d reads completed, %d arrivals scheduled", pooled.reads, pooled.scheduled))
	}
	// Layer metrics divide window 0's probes by its own work.
	ph.work = work{ops: int64(first.reads), reads: int64(first.reads), payload: first.bytes}
	// Every end-to-end metric of this workload is modelled, in virtual
	// time.  The simulator's wall-clock rate is reported beside them and
	// per layer (sim.wall_ns_per_event), not gated: on a shared host it
	// drifts by a third or more over minutes (README.md).
	ph.wallOps = ratio(float64(reads), wall.Seconds())
	ph.e2e = map[string]float64{
		"ops_per_s": ratio(float64(pooled.reads), pooled.elapsed.Seconds()),
		"mb_s":      ratio(float64(pooled.bytes)/1e6, pooled.elapsed.Seconds()),
	}
	ph.setLatency(&lat, false)
	ph.detail("sim_reads_per_s", ph.wallOps, "reads/s", fmt.Sprintf("(wall clock over %d windows; per-window median %.0f)", len(rates), median(rates)))
	ph.detail("model_reads_per_s", ph.e2e["ops_per_s"], "reads/s", "(virtual)")
	ph.detail("model_mb_s", ph.e2e["mb_s"], "MB/s", "(virtual)")
	ph.latencyDetail("model", &lat, false)
	ph.detail("sim.events", float64(pooled.events), "count", fmt.Sprintf("(over %d windows; window 0 alone %d, reproduced exactly)", windows, first.events))
	ph.detail("generator_lateness_s", 0, "s", "(virtual-time generator is on time by construction)")
	ph.note("%d of %d scheduled arrivals completed over %s of virtual windows; offered load %.0f MB/s",
		pooled.reads, pooled.scheduled, pooled.elapsed.Round(time.Millisecond), float64(p.logical)*p.rate*float64(p.block)/1e6)
	return ph, nil
}

// buildOpen builds the cluster (rc.setups times, timed) and writes each
// mount's file.
func buildOpen(rc runConfig, p openParams, ph *phase) (*cluster.Cluster, error) {
	cfg := cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: p.mounts, RSize: p.block, Seed: rc.seed}
	blocks := int(p.fileSize / p.block)
	cl, setup, err := setupRepeated(rc, cfg, onEach(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, openPath(i))
		if err != nil {
			return err
		}
		for b := 0; b < blocks; b++ {
			if err := m.Write(ctx, f, int64(b)*p.block, payload.Synthetic(p.block)); err != nil {
				return err
			}
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}))
	if err != nil {
		return nil, fmt.Errorf("sim-openloop setup: %w", err)
	}
	ph.setup = append(ph.setup, setup...)
	return cl, nil
}

// openWindow runs one arrival window on cl with arrivals drawn from seed.
func openWindow(cl *cluster.Cluster, rc runConfig, p openParams, s *phase, seed int64) (openOutcome, measured, latencies, error) {
	blocks := int(p.fileSize / p.block)
	per := make([]struct {
		tally
		scheduled uint64
		bytes     int64
		lat       latencies
	}, p.mounts)
	var elapsed time.Duration
	m, err := measure(cl, rc, func(time.Time) error {
		var err error
		elapsed, err = cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			share := p.logical / p.mounts
			if i < p.logical%p.mounts {
				share++
			}
			if share == 0 {
				return nil
			}
			pm := &per[i]
			rate := float64(share) * p.rate
			path := openPath(i)
			m.DropCaches()
			k := ctx.P.Kernel()
			flow := fmt.Sprintf("%s/openloop", m.Node().Name)
			slots := sim.NewSemaphore(flow, p.maxInFlight)
			var wg sim.WaitGroup
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			begin := ctx.P.Now()
			end := begin + sim.Time(p.window)
			for at, arrivals := begin, 0; ; arrivals++ {
				at += sim.Time(rng.ExpFloat64() / rate * 1e9)
				if at >= end {
					break
				}
				if arrivals%blocks == 0 {
					m.DropCaches() // keep reads cold: the population's working set exceeds any cache
				}
				off := int64(rng.Intn(blocks)) * p.block
				arrival := at
				ctx.P.SleepUntilTime(arrival)
				pm.scheduled++
				wg.Add(1)
				k.Go(flow, func(proc *sim.Proc) {
					defer wg.Done()
					slots.Acquire(proc, 1)
					defer slots.Release(1)
					fctx := &rpc.Ctx{P: proc}
					f, err := open(fctx, m, rc.trace, path)
					if !pm.check(err == nil, "open", path, 0, err) {
						pm.lat.fail()
						return
					}
					sp := rc.trace.begin(fctx, opRead)
					pl, got, err := m.Read(fctx, f, off, p.block)
					sp.end()
					if err == nil {
						if got != p.block {
							err = errMismatch
						}
						pl.Release()
					}
					ok := pm.check(err == nil, "read", path, off, err)
					closeFile(fctx, m, rc.trace, &pm.tally, f)
					if ok {
						pm.bytes += got
						pm.lat.add(time.Duration(proc.Now() - arrival))
					} else {
						pm.lat.fail()
					}
				})
			}
			wg.Wait(ctx.P)
			return nil
		})
		return err
	})
	if err != nil {
		return openOutcome{}, measured{}, latencies{}, fmt.Errorf("sim-openloop: %w", err)
	}
	out := openOutcome{elapsed: elapsed, events: m.after.events - m.before.events}
	var lat latencies
	for i := range per {
		s.add(per[i].tally)
		out.scheduled += per[i].scheduled
		out.bytes += per[i].bytes
		lat.merge(&per[i].lat)
	}
	out.reads = uint64(lat.succeeded())
	out.p50, _ = lat.quantile(0.50)
	out.p99, _ = lat.quantile(0.99)
	return out, m, lat, nil
}

func openPath(i int) string { return fmt.Sprintf("/openloop.%d", i) }
