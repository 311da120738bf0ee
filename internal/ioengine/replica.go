package ioengine

import (
	"errors"
	"sync"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
)

// healable reports whether another copy of the data may succeed where err
// failed: the device is down (rpc.Retryable), its copy failed checksum
// verification (rpc.RetryableIntegrity), or the client holds no conn for
// the device (*rpc.NoConnError).  Any other error — a protocol error, a
// stale handle — would fail the same way on every copy.
func healable(err error) bool {
	var nc *rpc.NoConnError
	return rpc.Retryable(err) || rpc.RetryableIntegrity(err) || errors.As(err, &nc)
}

// Replicas wires the replica rung to one client's file under a
// stripe.Replicated mapper.
type Replicas struct {
	Map *stripe.Replicated
	// Live reports whether a replica device may be read; departed devices
	// (NFS: absent from the latest GETDEVICELIST; PVFS2: retired daemons)
	// are never tried.
	Live func(dev int) bool
	// Read fetches extent e from its device.  real asks for real bytes even
	// when the caller reads synthetically: a repair rewrites content.
	Read func(ctx *rpc.Ctx, e stripe.Extent, real bool) (payload.Payload, error)
	// Deliver hands an alternate's good bytes for e to the request's
	// destination, which takes ownership of data.
	Deliver func(e stripe.Extent, data payload.Payload)
	// Rewrite overwrites the bad copy at e with good bytes.
	Rewrite func(ctx *rpc.Ctx, e stripe.Extent, good payload.Payload) error
	// Repairs deduplicates rewrites in flight; File names the file in its
	// claims (NFS filehandle, PVFS2 data handle).
	Repairs *Repairs
	File    uint64
}

// WithReplicas is the replica rung: a request that failed with a healable
// error is retried on each live alternate replica in turn (only Dev
// changes — replicas hold identical stripe objects), and the first copy
// that reads cleanly is delivered.  When the cause was an integrity error
// the alternate is read for real bytes and, before delivery, rewritten
// over the bad copy (read-repair); a good copy without bytes has nothing
// to rewrite.  A non-healable error, or every alternate failing, passes
// the original error to the next rung.
func WithReplicas(r Replicas) Policy {
	return WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, err error) error {
		if !healable(err) {
			return err
		}
		corrupt := rpc.RetryableIntegrity(err)
		for _, alt := range r.Map.AlternatesLive(e, r.Live) {
			data, aerr := r.Read(ctx, alt, corrupt)
			if aerr != nil {
				continue
			}
			if corrupt && len(data.Bytes) > 0 {
				r.Repairs.repair(claim{file: r.File, dev: e.Dev, devOff: e.DevOff}, func() error {
					return r.Rewrite(ctx, e, data)
				})
			}
			r.Deliver(alt, data)
			return nil
		}
		return err
	})
}

// Repairs is one client's read-repair claim set.  A claim covers a device
// extent only while its rewrite is in flight: concurrent corrupt reads of
// the extent serve the good bytes without rewriting again.  The claim is
// released when the rewrite finishes, whether it succeeded or failed, so
// the set holds at most the rewrites in flight and an extent that rots
// again is repaired again.  The rewrite is best-effort: the reader already
// holds good bytes, and the background scrubber sweeps up copies no client
// rewrites.
type Repairs struct {
	mu       sync.Mutex
	inflight map[claim]struct{}
	done     *metrics.Counter
}

// claim identifies one device extent of one file.
type claim struct {
	file   uint64
	dev    int
	devOff int64
}

// NewRepairs returns an empty claim set that counts successful rewrites on
// done.
func NewRepairs(done *metrics.Counter) *Repairs {
	return &Repairs{inflight: make(map[claim]struct{}), done: done}
}

// repair runs rewrite unless a rewrite of the same extent is in flight.
func (r *Repairs) repair(key claim, rewrite func() error) {
	r.mu.Lock()
	if _, busy := r.inflight[key]; busy {
		r.mu.Unlock()
		return
	}
	r.inflight[key] = struct{}{}
	r.mu.Unlock()
	err := rewrite()
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	if err == nil {
		r.done.Inc()
	}
}
