// Package ioengine is the unified striped-I/O scheduler shared by the
// NFSv4.1 and PVFS2 client data paths.  Both clients fan one application
// request out across storage nodes (the paper's central mechanism, §4);
// before this package each implemented that fan-out separately — the PVFS2
// client in lock-step waves that stalled on the slowest transfer of each
// batch, the NFS client unbounded with inline retry/recovery logic.  The
// engine gives them one implementation of the whole pipeline:
//
//   - Prepare turns mapper extents into the request stream: adjacent
//     same-device extents are coalesced (fewer, larger RPCs — in the spirit
//     of communication-optimal blocking) and the result is split against
//     MaxTransfer (PVFS2 "large transfer buffers", §5).
//   - Run issues the requests through a true sliding in-flight window of
//     MaxFlight slots: the moment a transfer completes, its slot re-issues
//     the next request.  Under the simulation kernel requests run as
//     simulated processes in virtual time; in real-time (TCP) mode they run
//     as plain goroutines — the rpc.Ctx passed in selects the mode, exactly
//     as elsewhere in the repository.  Config.Wave restores the historical
//     lock-step batching for comparison (the bench window-sweep figure).
//   - Policies wrap the per-request operation with failure handling, and
//     both clients build their recovery ladders from the same rungs:
//     bounded retry/backoff (WithRetry: PVFS2 riding out a crashed daemon),
//     replica failover with read-repair (WithReplicas, with one claim set
//     per client in Repairs), and generic fallbacks (WithFallback: the NFS
//     client's layout-recovery retry and MDS-proxied last resort).
//   - Fanout runs a fixed set of calls at once on the same processes or
//     goroutines, with no window (the PVFS2 metadata server's per-daemon
//     fan-out).
//
// # Tail-latency scheduling
//
// Beyond the basic window the engine implements four scheduling features
// (docs/ARCHITECTURE.md "Tail-latency scheduling"), all off by default and
// enabled per Tuning/RunOpts:
//
//   - QoS classes: every Run carries a Class (Foreground or Background).
//     Window slots dispatch strict-priority — a waiting foreground request
//     is always admitted before any waiting background one — and
//     Config.BackgroundShare caps the fraction of the window background
//     work may hold, so write-back and readahead can never crowd out
//     synchronous reads.
//   - Hedged requests: when a request has been in flight longer than an
//     adaptive straggler threshold (HedgeFactor × a latency EWMA, floored
//     at HedgeAfter), a duplicate is launched — but only on a spare slot
//     (the window bound holds with hedges outstanding).  Whichever copy
//     completes first wins and is recorded exactly once; the loser's
//     result is suppressed at completion.  Under the simulation kernel the
//     straggler timer is a virtual-time sleep, so hedged runs stay
//     deterministic by seed; only real-time (TCP) mode arms wall-clock
//     timers (counted by ioengine_wallclock_timers_total).
//   - Replica steering: SteerReplicas rewrites read extents produced by a
//     stripe.Replicated mapper onto each extent's least-loaded replica
//     device, using the engine's live per-device in-flight counts, with a
//     deterministic tie-break.  A steered read that fails still climbs
//     the issuer's ladder, whose WithReplicas rung tries the remaining live
//     replicas (stripe.Replicated.AlternatesLive) before any fallback.
//   - Adaptive window: with Config.Adaptive the effective window floats
//     between MinFlight and MaxFlight by AIMD — additive increase while
//     requests queue for slots, multiplicative decrease when the fast
//     latency EWMA runs well above the slow one (congestion).  The current
//     window is exported as the ioengine_maxflight gauge.
//
// Errors propagate deterministically: whatever the completion interleaving,
// Run returns the error of the lowest-indexed failed request, and no new
// requests are issued once a failure is recorded.
//
// The engine records its behaviour in the shared metrics registry
// (docs/METRICS.md): window occupancy, slot waits (total and per class),
// hedge launches/wins/cancellations, the adaptive window, and how many
// requests coalescing and splitting added or removed.
package ioengine

import (
	"sync"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/stripe"
)

// DoFunc executes one storage request.  The extent's Dev/Off/DevOff/Len
// carry the device routing; issuers close over whatever else they need
// (payload slices, file handles, layouts).
type DoFunc func(ctx *rpc.Ctx, r stripe.Extent) error

// Policy decorates a DoFunc with per-request failure handling.  Policies
// passed to Run compose outermost-first: Run(ctx, reqs, fn, p1, p2) executes
// p1(p2(fn)).
type Policy func(next DoFunc) DoFunc

// WithRetry retries rpc.Retryable failures under pol (zero-valued fields
// take rpc defaults), sleeping virtual time under the simulation kernel and
// wall clock otherwise.  onRetry, when non-nil, runs before each retry —
// issuers hook their retry counters here.  The loop itself is
// rpc.RetryPolicy.Do, shared with retry-wrapped conns.
func WithRetry(pol rpc.RetryPolicy, onRetry func()) Policy {
	return func(next DoFunc) DoFunc {
		return func(ctx *rpc.Ctx, r stripe.Extent) error {
			return pol.Do(ctx, onRetry, func() error { return next(ctx, r) })
		}
	}
}

// WithFallback runs fb when the wrapped operation fails, passing the
// original error.  fb returns nil if it recovered the request, the original
// error if it declined, or its own failure.  The NFS client stacks two of
// these: layout recovery (evict + LAYOUTGET + retry) inside, MDS-proxied
// I/O outside — the paper's guaranteed-correct fallback path (§4).
func WithFallback(fb func(ctx *rpc.Ctx, r stripe.Extent, err error) error) Policy {
	return func(next DoFunc) DoFunc {
		return func(ctx *rpc.Ctx, r stripe.Extent) error {
			err := next(ctx, r)
			if err == nil {
				return nil
			}
			return fb(ctx, r, err)
		}
	}
}

// Class is a request's QoS priority class.
type Class int

// The two classes.  Foreground is synchronous work an application thread is
// blocked on (reads, commits); Background is deferrable work issued on the
// application's behalf (write-back flushes, readahead fills).
const (
	Foreground Class = iota
	Background
	numClasses
)

// String renders the metrics label value.
func (c Class) String() string {
	if c == Background {
		return "background"
	}
	return "foreground"
}

// RunOpts tunes one Run call.  The zero value is a foreground, unhedged run
// — exactly the pre-QoS behaviour.
type RunOpts struct {
	// Class is the run's priority class for slot dispatch.
	Class Class
	// Hedge opts this run's requests into hedged duplicates (effective only
	// when the engine's Config.Hedge is also set).  Only idempotent
	// operations should opt in; in this repository that is reads.
	Hedge bool
}

// DefaultMaxFlight is the window size when Config leaves it zero — the
// PVFS2 client's "limited request parallelization" depth (paper §5).
const DefaultMaxFlight = 8

// Defaults for the tail-latency knobs.
const (
	// DefaultHedgeAfter floors the straggler threshold: a request is never
	// hedged before being in flight this long.
	DefaultHedgeAfter = 10 * time.Millisecond
	// DefaultHedgeFactor multiplies the fast latency EWMA to form the
	// adaptive straggler threshold.
	DefaultHedgeFactor = 4.0
	// DefaultMinFlight floors the AIMD-adaptive window.
	DefaultMinFlight = 2
	// aimdEvery is how many completions pass between AIMD adjustments.
	aimdEvery = 16
)

// Tuning is the engine's knob set, declared once: cluster.Config,
// nfs.ClientConfig and pvfs.ClientConfig embed it, and every zero value
// takes the engine default (or the client's own default where it has one).
type Tuning struct {
	// MaxFlight bounds concurrently outstanding requests across every Run
	// on this engine (0 = DefaultMaxFlight).  With Adaptive set it is the
	// ceiling of the AIMD window.
	MaxFlight int
	// MaxTransfer caps a single request's length; Prepare splits larger
	// extents (0 = no splitting).
	MaxTransfer int64
	// Wave issues requests in lock-step batches of MaxFlight instead of the
	// sliding window: each batch waits for its slowest transfer before the
	// next batch starts.  This reproduces the pre-engine PVFS2 dispatch for
	// the bench window-sweep comparison; leave false in production paths.
	Wave bool
	// BackgroundShare caps the fraction of the window that Background-class
	// requests may hold at once (at least one slot).  0 or >= 1 leaves
	// background uncapped; foreground waiters still dispatch first.
	BackgroundShare float64
	// Hedge enables hedged duplicate requests for runs that opt in via
	// RunOpts.Hedge.
	Hedge bool
	// HedgeAfter floors the straggler threshold (0 = DefaultHedgeAfter).
	HedgeAfter time.Duration
	// HedgeFactor multiplies the latency EWMA to form the straggler
	// threshold (0 = DefaultHedgeFactor).
	HedgeFactor float64
	// Adaptive lets the effective window float between MinFlight and
	// MaxFlight by AIMD on the engine's own latency/slot-wait signals.
	Adaptive bool
	// MinFlight floors the adaptive window (0 = DefaultMinFlight).
	MinFlight int
}

// Config describes one engine instance (one per protocol client).
type Config struct {
	// Name prefixes simulated process and semaphore names.
	Name string
	// Issuer labels the engine's metrics ("nfs", "pvfs").
	Issuer string
	Tuning
	// Metrics is the shared observability registry; nil discards.
	Metrics *metrics.Registry
}

// Engine schedules striped-I/O requests.  One engine per protocol client:
// the window is a client-wide bound, shared by every concurrent Run (sync
// reads, readahead fills, and write-back flushes all draw from the same
// slots, like one host's RPC slot table).
type Engine struct {
	cfg Config

	gate *gate // the class-aware window (both execution modes)

	// schedMu guards the latency EWMAs and AIMD counters.  Under the
	// simulation kernel completions arrive in deterministic virtual-time
	// order, so the adaptive state is reproducible by seed.
	schedMu     sync.Mutex
	latFast     float64 // fast EWMA of request latency, seconds (α=1/8)
	latSlow     float64 // slow EWMA, the congestion baseline (α=1/64)
	completions int     // since the last AIMD adjustment
	waited      int     // acquisitions that queued, since the last adjustment

	// devMu guards the per-device in-flight counts behind SteerReplicas.
	devMu   sync.Mutex
	devLoad map[int]int

	requests  *metrics.Counter
	coalesced *metrics.Counter
	splits    *metrics.Counter
	inflight  *metrics.Gauge
	occupancy *metrics.Histogram
	slotWait  *metrics.Histogram

	classReqs     [numClasses]*metrics.Counter
	classInflight [numClasses]*metrics.Gauge
	classWait     [numClasses]*metrics.Histogram
	hedgeLaunched *metrics.Counter
	hedgeWon      *metrics.Counter
	hedgeCanceled *metrics.Counter
	maxflightG    *metrics.Gauge
	wallTimers    *metrics.Counter
}

// occupancyBuckets cover window depths up to well past any configured
// MaxFlight.
var occupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// New returns an engine with defaults applied and instruments resolved.
func New(cfg Config) *Engine {
	if cfg.MaxFlight <= 0 {
		cfg.MaxFlight = DefaultMaxFlight
	}
	if cfg.Name == "" {
		cfg.Name = "ioengine"
	}
	if cfg.Issuer == "" {
		cfg.Issuer = cfg.Name
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.HedgeFactor <= 0 {
		cfg.HedgeFactor = DefaultHedgeFactor
	}
	if cfg.MinFlight <= 0 {
		cfg.MinFlight = DefaultMinFlight
	}
	if cfg.MinFlight > cfg.MaxFlight {
		cfg.MinFlight = cfg.MaxFlight
	}
	reg := cfg.Metrics
	e := &Engine{
		cfg:     cfg,
		gate:    newGate(cfg.MaxFlight, cfg.BackgroundShare),
		devLoad: make(map[int]int),
		requests: reg.CounterVec("ioengine_requests_total",
			"Requests issued by the striped-I/O engine (after coalescing and splitting).",
			"issuer").With(cfg.Issuer),
		coalesced: reg.CounterVec("ioengine_coalesced_total",
			"Adjacent same-device requests merged away by the engine.",
			"issuer").With(cfg.Issuer),
		splits: reg.CounterVec("ioengine_split_total",
			"Extra requests created by MaxTransfer splitting.",
			"issuer").With(cfg.Issuer),
		inflight: reg.GaugeVec("ioengine_inflight",
			"Requests currently occupying window slots.",
			"issuer").With(cfg.Issuer),
		occupancy: reg.HistogramVec("ioengine_window_occupancy",
			"In-flight depth observed as each request is issued.",
			occupancyBuckets, "issuer").With(cfg.Issuer),
		slotWait: reg.HistogramVec("ioengine_slot_wait_seconds",
			"Time a ready request waited for a free window slot.",
			metrics.DurationBuckets, "issuer").With(cfg.Issuer),
		hedgeLaunched: reg.CounterVec("ioengine_hedges_launched_total",
			"Hedged duplicate requests launched on spare slots for stragglers.",
			"issuer").With(cfg.Issuer),
		hedgeWon: reg.CounterVec("ioengine_hedges_won_total",
			"Hedges that completed before their primary (the duplicate's result won).",
			"issuer").With(cfg.Issuer),
		hedgeCanceled: reg.CounterVec("ioengine_hedges_cancelled_total",
			"Hedges whose primary completed first (the duplicate's result was suppressed).",
			"issuer").With(cfg.Issuer),
		maxflightG: reg.GaugeVec("ioengine_maxflight",
			"Current effective window size (AIMD-adaptive when Config.Adaptive).",
			"issuer").With(cfg.Issuer),
		wallTimers: reg.CounterVec("ioengine_wallclock_timers_total",
			"Wall-clock straggler timers armed (real-time mode only; zero on the fabric).",
			"issuer").With(cfg.Issuer),
	}
	for c := Class(0); c < numClasses; c++ {
		e.classReqs[c] = reg.CounterVec("ioengine_class_requests_total",
			"Requests issued per QoS priority class.",
			"issuer", "class").With(cfg.Issuer, c.String())
		e.classInflight[c] = reg.GaugeVec("ioengine_class_inflight",
			"Requests currently occupying window slots, per QoS class.",
			"issuer", "class").With(cfg.Issuer, c.String())
		e.classWait[c] = reg.HistogramVec("ioengine_class_slot_wait_seconds",
			"Slot-wait time per QoS class.",
			metrics.DurationBuckets, "issuer", "class").With(cfg.Issuer, c.String())
	}
	e.maxflightG.Set(int64(cfg.MaxFlight))
	return e
}

// MaxFlight reports the engine's window ceiling after defaults.
func (e *Engine) MaxFlight() int { return e.cfg.MaxFlight }

// Window reports the current effective window size (equals MaxFlight unless
// Config.Adaptive shrank it).
func (e *Engine) Window() int { return e.gate.limitNow() }

// Prepare turns mapper extents into the engine's request stream: adjacent
// extents on the same device that are contiguous in both logical and device
// space are merged into one request, then every request is split against
// MaxTransfer.  Order is preserved, so a given extent list always produces
// the same requests in the same sequence.
func (e *Engine) Prepare(extents []stripe.Extent) []stripe.Extent {
	merged := e.coalesceExtents(extents)
	if e.cfg.MaxTransfer <= 0 {
		return merged
	}
	out := make([]stripe.Extent, 0, len(merged))
	for _, x := range merged {
		for off := int64(0); off < x.Len; off += e.cfg.MaxTransfer {
			n := e.cfg.MaxTransfer
			if off+n > x.Len {
				n = x.Len - off
			}
			out = append(out, stripe.Extent{Dev: x.Dev, Off: x.Off + off, DevOff: x.DevOff + off, Len: n})
		}
	}
	if extra := len(out) - len(merged); extra > 0 {
		e.splits.Add(uint64(extra))
	}
	return out
}

// coalesceExtents merges runs that are contiguous on one device.  Merging
// requires logical contiguity too: a request's payload is addressed by its
// logical offset, so device-contiguous but logically scattered ranges stay
// separate.
func (e *Engine) coalesceExtents(in []stripe.Extent) []stripe.Extent {
	if len(in) < 2 {
		return in
	}
	out := make([]stripe.Extent, 0, len(in))
	out = append(out, in[0])
	for _, x := range in[1:] {
		last := &out[len(out)-1]
		if x.Dev == last.Dev && x.Off == last.Off+last.Len && x.DevOff == last.DevOff+last.Len {
			last.Len += x.Len
			e.coalesced.Inc()
			continue
		}
		out = append(out, x)
	}
	return out
}

// SteerReplicas rewrites read extents produced by rm.ReadMap onto each
// extent's least-loaded replica device, judged by the engine's live
// per-device in-flight counts.  Ties keep the extent where ReadMap's seed
// placed it (then the lowest replica index), so steering is deterministic:
// with no load imbalance it is the identity.
func (e *Engine) SteerReplicas(rm *stripe.Replicated, exts []stripe.Extent) []stripe.Extent {
	n := rm.Inner.NumDevices()
	if rm.Copies < 2 || n <= 0 {
		return exts
	}
	out := make([]stripe.Extent, len(exts))
	e.devMu.Lock()
	for i, x := range exts {
		base := x.Dev % n
		best, bestLoad := x.Dev, e.devLoad[x.Dev]
		for r := 0; r < rm.Copies; r++ {
			if d := base + r*n; e.devLoad[d] < bestLoad {
				best, bestLoad = d, e.devLoad[d]
			}
		}
		x.Dev = best
		out[i] = x
	}
	e.devMu.Unlock()
	return out
}

// DevLoad reports the in-flight request count for one device (tests and
// steering diagnostics).
func (e *Engine) DevLoad(dev int) int {
	e.devMu.Lock()
	defer e.devMu.Unlock()
	return e.devLoad[dev]
}

func (e *Engine) devBegin(dev int) {
	if dev < 0 {
		return
	}
	e.devMu.Lock()
	e.devLoad[dev]++
	e.devMu.Unlock()
}

func (e *Engine) devEnd(dev int) {
	if dev < 0 {
		return
	}
	e.devMu.Lock()
	e.devLoad[dev]--
	e.devMu.Unlock()
}

// firstError records the lowest-indexed failure across concurrent requests.
type firstError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *firstError) record(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Run executes every request with at most the window in flight, applying the
// policies (outermost first) around fn.  It blocks the caller until all
// issued requests complete and returns the lowest-indexed request's error,
// or nil.  Once any request fails, no further requests are issued.  Run is
// a foreground, unhedged RunWith.
func (e *Engine) Run(ctx *rpc.Ctx, reqs []stripe.Extent, fn DoFunc, policies ...Policy) error {
	return e.RunWith(ctx, RunOpts{}, reqs, fn, policies...)
}

// RunWith is Run with explicit QoS class and hedging options.
func (e *Engine) RunWith(ctx *rpc.Ctx, opts RunOpts, reqs []stripe.Extent, fn DoFunc, policies ...Policy) error {
	if len(reqs) == 0 {
		return nil
	}
	for i := len(policies) - 1; i >= 0; i-- {
		fn = policies[i](fn)
	}
	return e.RunIndexed(ctx, opts, reqs,
		func(ctx *rpc.Ctx, _ int, r stripe.Extent) error { return fn(ctx, r) })
}

// IndexedDoFunc is a DoFunc that also receives the request's index in the
// run's extent list.  Cross-file write-back batches use it to dispatch
// each extent to its owning file's ladder.
type IndexedDoFunc func(ctx *rpc.Ctx, i int, r stripe.Extent) error

// RunIndexed runs reqs under opts like RunWith, delivering each extent's
// index in reqs to fn.  Unlike RunWith it takes no policies: a batch mixes
// extents with different failure ladders, so the caller pre-composes the
// right ladder into fn per index.
func (e *Engine) RunIndexed(ctx *rpc.Ctx, opts RunOpts, reqs []stripe.Extent, fn IndexedDoFunc) error {
	if len(reqs) == 0 {
		return nil
	}
	e.requests.Add(uint64(len(reqs)))
	e.classReqs[opts.Class].Add(uint64(len(reqs)))
	if e.cfg.Wave {
		return e.runWaves(ctx, opts.Class, reqs, fn)
	}
	return e.runWindow(ctx, opts, reqs, fn)
}

// acquire takes one window slot for class, recording slot-wait and
// occupancy.
func (e *Engine) acquire(ctx *rpc.Ctx, class Class) {
	var queued bool
	var wait time.Duration
	if ctx.P != nil {
		start := ctx.Now()
		queued = e.gate.acquireSim(ctx.P, class, e.cfg.Name)
		wait = time.Duration(ctx.Now() - start)
	} else {
		start := time.Now()
		queued = e.gate.acquireRT(class)
		wait = time.Since(start)
	}
	e.slotWait.ObserveDuration(wait)
	e.classWait[class].ObserveDuration(wait)
	if queued {
		e.schedMu.Lock()
		e.waited++
		e.schedMu.Unlock()
	}
	e.noteIssued(class)
}

// tryAcquire takes a slot only if one is free right now and no request is
// queued for it — the hedge admission rule: duplicates ride spare capacity
// and never displace first-copy work.
func (e *Engine) tryAcquire(class Class) bool {
	if !e.gate.tryAcquire(class) {
		return false
	}
	e.noteIssued(class)
	return true
}

func (e *Engine) noteIssued(class Class) {
	e.inflight.Inc()
	e.classInflight[class].Inc()
	e.occupancy.Observe(float64(e.inflight.Value()))
}

// release returns one window slot.
func (e *Engine) release(class Class) {
	e.inflight.Dec()
	e.classInflight[class].Dec()
	e.gate.release(class)
}

// observeLatency feeds one completed request's service time into the
// hedging EWMA and, when adaptive, the AIMD controller.
func (e *Engine) observeLatency(sec float64) {
	e.schedMu.Lock()
	if e.latFast == 0 && e.latSlow == 0 {
		e.latFast, e.latSlow = sec, sec
	} else {
		e.latFast += (sec - e.latFast) / 8
		e.latSlow += (sec - e.latSlow) / 64
	}
	adjust := false
	var congested bool
	var waited int
	e.completions++
	if e.cfg.Adaptive && e.completions >= aimdEvery {
		e.completions = 0
		waited, e.waited = e.waited, 0
		congested = e.latFast > 2*e.latSlow
		adjust = true
	}
	e.schedMu.Unlock()
	if !adjust {
		return
	}
	cur := e.gate.limitNow()
	next := cur
	if congested && cur > e.cfg.MinFlight {
		// Multiplicative decrease: back off to 3/4 under congestion.
		next = cur * 3 / 4
		if next < e.cfg.MinFlight {
			next = e.cfg.MinFlight
		}
	} else if !congested && waited > 0 && cur < e.cfg.MaxFlight {
		// Additive increase while demand is queueing for slots.
		next = cur + 1
	}
	if next != cur {
		e.gate.setLimit(next)
		e.maxflightG.Set(int64(next))
	}
}

// hedgeThreshold is the current straggler threshold: HedgeFactor times the
// fast latency EWMA, floored at HedgeAfter.
func (e *Engine) hedgeThreshold() time.Duration {
	e.schedMu.Lock()
	ewma := e.latFast
	e.schedMu.Unlock()
	d := time.Duration(ewma * e.cfg.HedgeFactor * float64(time.Second))
	if d < e.cfg.HedgeAfter {
		d = e.cfg.HedgeAfter
	}
	return d
}

// group tracks per-REQUEST completions, not per-worker exits: issue adds one
// unit per request, and whichever copy (primary or hedge) completes first
// signals it.  That is what makes hedging effective — Run unblocks the
// moment every request has a winning completion, while losing duplicates
// keep running detached (simulated processes the kernel drains, or plain
// goroutines) just long enough to return their window slots.
type group struct {
	ctx *rpc.Ctx
	wg  sync.WaitGroup
	swg sim.WaitGroup
}

// add reserves one request completion.
func (g *group) add() {
	if g.ctx.P == nil {
		g.wg.Add(1)
		return
	}
	g.swg.Add(1)
}

// done signals one request's first completion.
func (g *group) done() {
	if g.ctx.P == nil {
		g.wg.Done()
		return
	}
	g.swg.Done()
}

// launch starts one detached request copy on the mode's runtime.
func (g *group) launch(name string, work func(c *rpc.Ctx)) {
	if g.ctx.P == nil {
		go work(&rpc.Ctx{})
		return
	}
	g.ctx.P.Kernel().Go(name, func(p *sim.Proc) {
		work(&rpc.Ctx{P: p})
	})
}

func (g *group) wait() {
	if g.ctx.P == nil {
		g.wg.Wait()
		return
	}
	g.swg.Wait(g.ctx.P)
}

// Fanout runs fn(ctx, i) for every i in [0, n) at once on the runtime Run
// uses — simulated processes named name under the kernel, goroutines in
// real-time mode — with no window: for fan-outs whose width is already
// bounded by the cluster's size (the PVFS2 metadata server's per-daemon
// calls).  It waits for every call and returns the lowest-indexed error.
// A single call runs on the caller.
func Fanout(ctx *rpc.Ctx, name string, n int, fn func(ctx *rpc.Ctx, i int) error) error {
	if n == 1 {
		return fn(ctx, 0)
	}
	var ferr firstError
	g := &group{ctx: ctx}
	for i := 0; i < n; i++ {
		g.add()
		g.launch(name, func(c *rpc.Ctx) {
			if err := fn(c, i); err != nil {
				ferr.record(i, err)
			}
			g.done()
		})
	}
	g.wait()
	return ferr.get()
}

// reqState is the per-request completion record shared by a primary and its
// hedge: whichever copy finishes first marks done and is the one recorded.
type reqState struct {
	mu     sync.Mutex
	done   bool
	hedged bool
}

// complete records one copy's outcome and reports whether it won the
// request.  Exactly one copy per request passes the first-completion gate,
// whatever the interleaving — that copy records the error (if any) and feeds
// the latency EWMA; the loser is suppressed.
func (e *Engine) complete(st *reqState, i int, err error, ferr *firstError, isHedge bool, sec float64) bool {
	st.mu.Lock()
	first := !st.done
	if first {
		st.done = true
	}
	st.mu.Unlock()
	if first {
		if err != nil {
			ferr.record(i, err)
		}
		if isHedge {
			e.hedgeWon.Inc()
		}
		e.observeLatency(sec)
		return true
	}
	if isHedge {
		e.hedgeCanceled.Inc()
	}
	return false
}

// now returns elapsed seconds measured on the mode's clock.
func elapsedSince(ctx *rpc.Ctx, simStart sim.Time, wallStart time.Time) float64 {
	if ctx.P != nil {
		return time.Duration(ctx.Now() - simStart).Seconds()
	}
	return time.Since(wallStart).Seconds()
}

// issue blocks on a free window slot, then hands request i to its own
// worker: the group gains one unit — the request's completion — and the
// first copy to finish signals it.  The worker releases its slot when it
// returns, win or lose, so the window bound holds even while a losing
// straggler is still running after Run unblocked.  With hedging, a straggler
// watcher launches a duplicate on a spare slot once the request outlives the
// adaptive threshold.
func (e *Engine) issue(g *group, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, opts RunOpts, hedge bool) {
	e.acquire(g.ctx, opts.Class)
	st := &reqState{}
	g.add()
	g.launch(e.cfg.Name+"/io", func(c *rpc.Ctx) {
		var simStart sim.Time
		var wallStart time.Time
		if c.P != nil {
			simStart = c.Now()
		} else {
			wallStart = time.Now()
		}
		e.devBegin(r.Dev)
		err := fn(c, i, r)
		e.devEnd(r.Dev)
		sec := elapsedSince(c, simStart, wallStart)
		won := e.complete(st, i, err, ferr, false, sec)
		e.release(opts.Class)
		if won {
			g.done()
		}
	})
	if hedge {
		e.watchStraggler(g, st, i, r, fn, ferr, opts)
	}
}

// watchStraggler arms the straggler timer for one request: a virtual-time
// sleep under the simulation kernel (deterministic by seed), a wall-clock
// timer goroutine in real-time mode.  The watcher runs outside the group —
// Run never waits on a timer, only on issued copies.
func (e *Engine) watchStraggler(g *group, st *reqState, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, opts RunOpts) {
	d := e.hedgeThreshold()
	if g.ctx.P != nil {
		g.ctx.P.Kernel().Go(e.cfg.Name+"/hedge-timer", func(p *sim.Proc) {
			p.Sleep(d)
			e.tryHedge(g, st, i, r, fn, ferr, opts)
		})
		return
	}
	e.wallTimers.Inc()
	go func() {
		time.Sleep(d)
		e.tryHedge(g, st, i, r, fn, ferr, opts)
	}()
}

// tryHedge launches the duplicate if the primary is still in flight and a
// spare slot is free.  The duplicate joins the race for the request's single
// group unit, which the primary reserved at issue: whichever copy completes
// first signals it, so a winning hedge unblocks Run while the straggling
// primary is still out.
func (e *Engine) tryHedge(g *group, st *reqState, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, opts RunOpts) {
	st.mu.Lock()
	if st.done || st.hedged {
		st.mu.Unlock()
		return
	}
	if !e.tryAcquire(opts.Class) {
		st.mu.Unlock()
		return
	}
	st.hedged = true
	st.mu.Unlock()
	e.hedgeLaunched.Inc()
	g.launch(e.cfg.Name+"/hedge", func(c *rpc.Ctx) {
		var simStart sim.Time
		var wallStart time.Time
		if c.P != nil {
			simStart = c.Now()
		} else {
			wallStart = time.Now()
		}
		e.devBegin(r.Dev)
		err := fn(c, i, r)
		e.devEnd(r.Dev)
		sec := elapsedSince(c, simStart, wallStart)
		won := e.complete(st, i, err, ferr, true, sec)
		e.release(opts.Class)
		if won {
			g.done()
		}
	})
}

// runWindow is the sliding window: the issue loop blocks on a free slot,
// then hands the request to its own process/goroutine, so a completing
// transfer immediately admits the next one.
func (e *Engine) runWindow(ctx *rpc.Ctx, opts RunOpts, reqs []stripe.Extent, fn IndexedDoFunc) error {
	hedge := opts.Hedge && e.cfg.Hedge
	if len(reqs) == 1 && !hedge {
		// Degenerate fan-out (one extent per gathered chunk is the common
		// NFS case): run on the caller, still under the window bound.
		e.acquire(ctx, opts.Class)
		defer e.release(opts.Class)
		var simStart sim.Time
		var wallStart time.Time
		if ctx.P != nil {
			simStart = ctx.Now()
		} else {
			wallStart = time.Now()
		}
		e.devBegin(reqs[0].Dev)
		err := fn(ctx, 0, reqs[0])
		e.devEnd(reqs[0].Dev)
		e.observeLatency(elapsedSince(ctx, simStart, wallStart))
		return err
	}
	var ferr firstError
	g := &group{ctx: ctx}
	for i, r := range reqs {
		if ferr.get() != nil {
			break
		}
		e.issue(g, i, r, fn, &ferr, opts, hedge)
	}
	g.wait()
	return ferr.get()
}

// runWaves is the historical lock-step dispatch: batches of MaxFlight, each
// waiting for its slowest member.  Kept for the bench comparison and for
// reproducing pre-engine schedules.  Waves never hedge.
func (e *Engine) runWaves(ctx *rpc.Ctx, class Class, reqs []stripe.Extent, fn IndexedDoFunc) error {
	opts := RunOpts{Class: class}
	var ferr firstError
	for start := 0; start < len(reqs); start += e.cfg.MaxFlight {
		end := start + e.cfg.MaxFlight
		if end > len(reqs) {
			end = len(reqs)
		}
		batch := reqs[start:end]
		if len(batch) == 1 {
			e.acquire(ctx, class)
			e.devBegin(batch[0].Dev)
			err := fn(ctx, start, batch[0])
			e.devEnd(batch[0].Dev)
			e.release(class)
			if err != nil {
				ferr.record(start, err)
			}
		} else {
			g := &group{ctx: ctx}
			for j, r := range batch {
				e.issue(g, start+j, r, fn, &ferr, opts, false)
			}
			g.wait()
		}
		if ferr.get() != nil {
			break
		}
	}
	return ferr.get()
}
