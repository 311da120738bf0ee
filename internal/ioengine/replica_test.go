package ioengine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
)

// copies models the replicas of one stripe object, one per device, for the
// replica-rung table test.  Reads and rewrites take virtual time, so
// concurrent readers interleave deterministically under the kernel.
type copies struct {
	down, corrupt, noConn, departed, synthetic map[int]bool
	// primaryErr, when set, is what a read of the primary device returns.
	primaryErr error
	reads      []int  // devices read, in order
	realReads  []bool // whether each read asked for real bytes
	rewrites   []int  // devices rewritten, in order
	delivered  []int  // devices whose bytes were delivered
	downErrs   map[int]error
}

func (c *copies) read(ctx *rpc.Ctx, e stripe.Extent, real bool) (payload.Payload, error) {
	c.reads = append(c.reads, e.Dev)
	c.realReads = append(c.realReads, real)
	ctx.Sleep(time.Millisecond)
	switch {
	case e.Dev == 0 && c.primaryErr != nil:
		return payload.Payload{}, c.primaryErr
	case c.down[e.Dev]:
		return payload.Payload{}, c.downErrs[e.Dev]
	case c.noConn[e.Dev]:
		return payload.Payload{}, &rpc.NoConnError{Dev: e.Dev}
	case c.corrupt[e.Dev]:
		return payload.Payload{}, store.ErrCorrupt
	case c.synthetic[e.Dev]:
		return payload.Synthetic(e.Len), nil
	}
	return payload.Real(make([]byte, e.Len)), nil
}

func (c *copies) rewrite(ctx *rpc.Ctx, e stripe.Extent, good payload.Payload) error {
	ctx.Sleep(5 * time.Millisecond)
	c.rewrites = append(c.rewrites, e.Dev)
	c.corrupt[e.Dev] = false
	return nil
}

// TestReplicaRung pins the shared replica rung both clients compose: which
// errors reach an alternate, which alternates are read, when the bad copy
// is rewritten, and what error the next rung sees.
func TestReplicaRung(t *testing.T) {
	stale := errors.New("stale handle")
	cases := []struct {
		name      string
		ncopies   int
		readers   int
		set       func(c *copies)
		wantReads []int
		wantReal  []bool // per read; nil skips the check
		rewrites  []int
		delivered []int
		wantErr   func(c *copies) error // nil: the read succeeds
	}{
		{
			name: "dead primary is served by the alternate", ncopies: 2, readers: 1,
			set:       func(c *copies) { c.down[0] = true },
			wantReads: []int{0, 2}, delivered: []int{2},
		},
		{
			name: "missing conn is healed by the alternate", ncopies: 2, readers: 1,
			set:       func(c *copies) { c.noConn[0] = true },
			wantReads: []int{0, 2}, delivered: []int{2},
		},
		{
			name: "corrupt primary is repaired once with two concurrent readers", ncopies: 2, readers: 2,
			set:       func(c *copies) { c.corrupt[0] = true },
			wantReads: []int{0, 0, 2, 2}, wantReal: []bool{false, false, true, true},
			rewrites: []int{0}, delivered: []int{2, 2},
		},
		{
			name: "good copy without bytes is not rewritten", ncopies: 2, readers: 1,
			set:       func(c *copies) { c.corrupt[0] = true; c.synthetic[2] = true },
			wantReads: []int{0, 2}, delivered: []int{2},
		},
		{
			name: "departed alternate is never read", ncopies: 3, readers: 1,
			set:       func(c *copies) { c.down[0] = true; c.departed[2] = true },
			wantReads: []int{0, 4}, delivered: []int{4},
		},
		{
			name: "error no copy can heal passes unchanged", ncopies: 2, readers: 1,
			set:       func(c *copies) { c.primaryErr = stale },
			wantReads: []int{0},
			wantErr:   func(*copies) error { return stale },
		},
		{
			name: "every alternate failing returns the original cause", ncopies: 3, readers: 1,
			set:       func(c *copies) { c.down[0], c.down[2] = true, true; c.corrupt[4] = true },
			wantReads: []int{0, 2, 4},
			wantErr:   func(c *copies) error { return c.downErrs[0] },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &copies{
				down: map[int]bool{}, corrupt: map[int]bool{}, noConn: map[int]bool{},
				departed: map[int]bool{}, synthetic: map[int]bool{}, downErrs: map[int]error{},
			}
			for d := 0; d < 2*tc.ncopies; d++ {
				c.downErrs[d] = &rpc.DownError{Node: fmt.Sprintf("io%d", d)}
			}
			tc.set(c)
			repaired := &metrics.Counter{}
			claims := NewRepairs(repaired)
			primary := func(ctx *rpc.Ctx, e stripe.Extent) error {
				data, err := c.read(ctx, e, false)
				if err != nil {
					return err
				}
				c.delivered = append(c.delivered, e.Dev)
				data.Release()
				return nil
			}
			rung := WithReplicas(Replicas{
				Map:     stripe.NewReplicated(stripe.NewRoundRobin(64, 2), tc.ncopies),
				Live:    func(dev int) bool { return !c.departed[dev] },
				Read:    c.read,
				Deliver: func(e stripe.Extent, _ payload.Payload) { c.delivered = append(c.delivered, e.Dev) },
				Rewrite: c.rewrite,
				Repairs: claims,
				File:    7,
			})(primary)
			errs := make([]error, tc.readers)
			k := sim.NewKernel(1)
			for i := 0; i < tc.readers; i++ {
				k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
					errs[i] = rung(&rpc.Ctx{P: p}, stripe.Extent{Dev: 0, Off: 0, DevOff: 0, Len: 64})
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			var want error
			if tc.wantErr != nil {
				want = tc.wantErr(c)
			}
			for i, err := range errs {
				if err != want {
					t.Errorf("reader %d: err = %v, want %v", i, err, want)
				}
			}
			if !reflect.DeepEqual(c.reads, tc.wantReads) {
				t.Errorf("devices read = %v, want %v", c.reads, tc.wantReads)
			}
			if tc.wantReal != nil && !reflect.DeepEqual(c.realReads, tc.wantReal) {
				t.Errorf("real-byte reads = %v, want %v", c.realReads, tc.wantReal)
			}
			if !reflect.DeepEqual(c.rewrites, tc.rewrites) {
				t.Errorf("rewrites = %v, want %v", c.rewrites, tc.rewrites)
			}
			if got := repaired.Value(); got != uint64(len(tc.rewrites)) {
				t.Errorf("repair counter = %d, want %d", got, len(tc.rewrites))
			}
			if !reflect.DeepEqual(c.delivered, tc.delivered) {
				t.Errorf("delivered from = %v, want %v", c.delivered, tc.delivered)
			}
			if n := len(claims.inflight); n != 0 {
				t.Errorf("%d repair claims still held after every rewrite finished", n)
			}
		})
	}
}

// TestRepairsReleaseClaims pins the claim lifetime: a claim is held only
// while its rewrite runs, so the same extent is repaired again after a
// successful rewrite, and a failed rewrite does not count.
func TestRepairsReleaseClaims(t *testing.T) {
	repaired := &metrics.Counter{}
	claims := NewRepairs(repaired)
	key := claim{file: 1, dev: 0, devOff: 4096}
	for i := 0; i < 2; i++ {
		claims.repair(key, func() error { return nil })
	}
	claims.repair(key, func() error { return errors.New("rewrite failed") })
	if got := repaired.Value(); got != 2 {
		t.Fatalf("repairs = %d, want 2 (each rot repaired; the failed rewrite not counted)", got)
	}
	if n := len(claims.inflight); n != 0 {
		t.Fatalf("%d claims held with no rewrite in flight", n)
	}
}

// TestFanout checks the unwindowed fan-out in both execution modes: every
// call runs, concurrently, and the lowest-indexed error wins.
func TestFanout(t *testing.T) {
	fail := func(i int) error {
		if i == 2 || i == 4 {
			return fmt.Errorf("call %d failed", i)
		}
		return nil
	}
	check := func(t *testing.T, ran []bool, err error) {
		t.Helper()
		if err == nil || err.Error() != "call 2 failed" {
			t.Fatalf("err = %v, want the lowest-indexed failure (call 2)", err)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("call %d never ran", i)
			}
		}
	}
	t.Run("sim", func(t *testing.T) {
		ran := make([]bool, 5)
		var err error
		var took sim.Time
		runSim(t, func(ctx *rpc.Ctx) {
			start := ctx.Now()
			err = Fanout(ctx, "fanout", len(ran), func(ctx *rpc.Ctx, i int) error {
				ctx.Sleep(time.Millisecond)
				ran[i] = true
				return fail(i)
			})
			took = ctx.Now() - start
		})
		check(t, ran, err)
		if took != sim.Time(time.Millisecond) {
			t.Fatalf("fan-out took %v of virtual time, want one call's 1ms (calls run at once)", time.Duration(took))
		}
	})
	t.Run("realtime", func(t *testing.T) {
		ran := make([]bool, 5)
		err := Fanout(&rpc.Ctx{}, "fanout", len(ran), func(_ *rpc.Ctx, i int) error {
			ran[i] = true
			return fail(i)
		})
		check(t, ran, err)
	})
}
