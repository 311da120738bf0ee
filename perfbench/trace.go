package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dpnfs/internal/rpc"
)

// op names one timed boundary: a cluster.Mount call made by the benchmark,
// or a store call made by a server through the wrapping store factory.
type op int

const (
	opCreate op = iota
	opOpen
	opRead
	opWrite
	opFsync
	opClose
	opRemove
	opStoreWrite
	opStoreRead
	opStoreSync
	opStoreMeta
	numOps
)

// opSpec gives each op its layer, its name in span files, and the prefix of
// its per-layer metrics.
var opSpec = [numOps]struct{ layer, name, metric string }{
	opCreate:     {"cluster", "create", "cluster.create"},
	opOpen:       {"cluster", "open", "cluster.open"},
	opRead:       {"cluster", "read", "cluster.read"},
	opWrite:      {"cluster", "write", "cluster.write"},
	opFsync:      {"cluster", "fsync", "cluster.fsync"},
	opClose:      {"cluster", "close", "cluster.close"},
	opRemove:     {"cluster", "remove", "cluster.remove"},
	opStoreWrite: {"store", "content.write", "store.content.write"},
	opStoreRead:  {"store", "content.read", "store.content.read"},
	opStoreSync:  {"store", "content.sync", "store.content.sync"},
	opStoreMeta:  {"store", "meta", "store.meta"},
}

// maxSpans bounds the spans one traced run keeps (24 bytes each); calls
// past it are still counted and timed, only not written out.
const maxSpans = 1 << 18

type span struct {
	op         op
	start, end int64 // ns: virtual time for cluster ops on the simulator, else wall time since the tracer's epoch
}

// tracer aggregates per-op call counts and time, and keeps the spans in
// memory until the run ends.  A nil *tracer is the untraced run: its spans
// record nothing.
type tracer struct {
	epoch   time.Time
	calls   [numOps]atomic.Int64
	nanos   [numOps]atomic.Int64
	stored  atomic.Int64 // bytes passed into store WriteAt / WriteSyntheticAt
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reset forgets everything recorded so far (the set-up's store calls), so
// the traced metrics cover the measured phase alone.
func (t *tracer) reset() {
	for o := range t.calls {
		t.calls[o].Store(0)
		t.nanos[o].Store(0)
	}
	t.stored.Store(0)
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.mu.Unlock()
}

// spanTimer is an open timing of one call; end closes it.  It is a value, so
// timing a call allocates nothing.
type spanTimer struct {
	t     *tracer
	ctx   *rpc.Ctx
	o     op
	start int64
}

// begin starts timing a cluster.Mount call.  On the simulator the span is
// in virtual time (the call's own latency, not the wall time the kernel
// spends on other processes meanwhile).
func (t *tracer) begin(ctx *rpc.Ctx, o op) spanTimer {
	if t == nil {
		return spanTimer{}
	}
	return spanTimer{t, ctx, o, t.now(ctx)}
}

func (s spanTimer) end() {
	if s.t != nil {
		s.t.record(s.o, s.start, s.t.now(s.ctx))
	}
}

// now is virtual time under the simulator, else wall time since the epoch.
func (t *tracer) now(ctx *rpc.Ctx) int64 {
	if ctx.P != nil {
		return int64(ctx.P.Now())
	}
	return t.wall()
}

func (t *tracer) wall() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(o op, start, end int64) {
	t.calls[o].Add(1)
	t.nanos[o].Add(end - start)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{o, start, end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// writeSpans writes the kept spans as CSV (layer,op,start_ns,end_ns) to
// dir/name and returns the file's path.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans kept %d, dropped past the cap %d; cluster spans on the simulator are virtual ns\n",
		len(t.spans), t.dropped)
	fmt.Fprintln(w, "layer,op,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%s,%d,%d\n", opSpec[s.op].layer, opSpec[s.op].name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
