package main

import (
	"fmt"
	"math/rand"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// smallParams sizes the tcp-smallops workload.
type smallParams struct {
	mounts    int
	records   int     // table records owned by each mount
	recSize   int64   // rmw record size
	metaSize  int64   // bytes written by each meta transaction
	dropEvery int     // rmw transactions between page-cache drops
	txnRate   float64 // transactions per second per mount on an unloaded host; sets the quota
	wrongByte bool    // negative test: expect one flipped byte on every read
}

// The client page cache never evicts and rounds a cold read out to a whole
// 2 MB rsize chunk, so without drops the table's chunks would all become
// resident and rmw reads would drift from misses to hits.  Reopening the
// table with dropped caches every dropEvery rmw transactions holds the hit
// ratio flat: each period re-fetches the few chunks it touches.
var defaultSmall = smallParams{mounts: 2, records: 4096, recSize: 8 << 10, metaSize: 4 << 10, dropEvery: 256, txnRate: 800}

func (p smallParams) String() string {
	return fmt.Sprintf("mounts=%d records/mount=%d record=%dKiB meta=%dKiB drop-caches-every=%d-rmw quota=%g-txn/s/mount transport=tcp real=true",
		p.mounts, p.records, p.recSize>>10, p.metaSize>>10, p.dropEvery, p.txnRate)
}

const tablePath = "/table"

func metaDir(i int) string { return fmt.Sprintf("/meta.%d", i) }

// smallClient is one mount's loop state and tally of the measured phase.
type smallClient struct {
	p      smallParams
	t      *tracer
	seed   int64
	i      int                 // mount index
	txns   int                 // quota
	recOff func(rec int) int64 // table offset of this mount's record rec
	tally
	rmw, meta latencies
	payload   int64
	written   int64
}

// runSmall is tcp-smallops: each mount alternates an rmw transaction (read
// one 8 KB record at a seeded random index of its own range of a shared
// prefilled table, check it holds the last value this mount wrote, write
// the next value, fsync) with a meta transaction (create, write 4 KB,
// close, remove in the mount's own directory; the file's size is checked
// before the remove and its absence after).
func runSmall(rc runConfig, p smallParams) (*phase, error) {
	// Pre-generate the prefill so set-up time excludes content generation.
	chunk := int64(2 << 20)
	perChunk := int(chunk / p.recSize)
	prefill := make([][][]byte, p.mounts)
	for i := range prefill {
		for r := 0; r < p.records; r += perChunk {
			n := min(perChunk, p.records-r)
			buf := make([]byte, int64(n)*p.recSize)
			for k := 0; k < n; k++ {
				fill(buf[int64(k)*p.recSize:int64(k+1)*p.recSize], rc.seed, uint64(i), uint64(r+k), 0)
			}
			prefill[i] = append(prefill[i], buf)
		}
	}
	recOff := func(i, rec int) int64 { return (int64(i)*int64(p.records) + int64(rec)) * p.recSize }

	cfg := cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: p.mounts, Transport: cluster.TransportTCP, Real: true, Seed: rc.seed}
	cl, setup, err := setupRepeated(rc, cfg, func(cl *cluster.Cluster) error {
		// Mount 0 creates the shared table; then every mount prefills its range.
		if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
			f, err := m.Create(ctx, tablePath)
			if err != nil {
				return err
			}
			return m.Close(ctx, f)
		}); err != nil {
			return err
		}
		_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			if err := m.Mkdir(ctx, metaDir(i)); err != nil {
				return err
			}
			f, err := m.Open(ctx, tablePath)
			if err != nil {
				return err
			}
			for c, buf := range prefill[i] {
				if err := m.Write(ctx, f, recOff(i, c*perChunk), payload.Real(buf)); err != nil {
					return err
				}
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			return m.Close(ctx, f)
		})
		return err
	})
	prefill = nil
	if err != nil {
		return nil, fmt.Errorf("tcp-smallops setup: %w", err)
	}
	defer cl.Close()

	per := make([]smallClient, p.mounts) // one per mount goroutine
	m, err := measure(cl, rc, func(deadline time.Time) error {
		_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			s := &per[i]
			s.p, s.t, s.seed, s.i, s.txns = p, rc.trace, rc.seed, i, rc.quota(p.txnRate)
			s.recOff = func(rec int) int64 { return recOff(i, rec) }
			s.loop(ctx, m, deadline)
			return nil
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("tcp-smallops: %w", err)
	}

	ph := &phase{setup: setup, measured: m}
	var rmw, meta, all latencies
	for i := range per {
		s := &per[i]
		ph.add(s.tally)
		rmw.merge(&s.rmw)
		meta.merge(&s.meta)
		all.merge(&s.rmw)
		all.merge(&s.meta)
		if done := s.rmw.count() + s.meta.count(); done < s.txns {
			ph.note("mount %d stopped at %d of %d transactions: the run reached %d times its length", i, done, s.txns, overrun)
		}
		ph.work.payload += s.payload
		ph.work.written += s.written
		ph.work.reads += int64(s.rmw.succeeded())
	}
	ph.work.ops = int64(rmw.succeeded() + meta.succeeded())
	ph.finish(&all, &meta)
	ph.detail("txn_per_s", ph.e2e["ops_per_s"], "txn/s", "")
	ph.latencyDetail("rmw", &rmw, true)
	ph.latencyDetail("meta", &meta, true)
	ph.note("working set: table %d MiB (%d records of %d KiB per mount), caches dropped every %d rmw",
		int64(p.mounts*p.records)*p.recSize>>20, p.records, p.recSize>>10, p.dropEvery)
	return ph, nil
}

// loop alternates rmw and meta transactions until it has made s.txns of
// them, or deadline passes.
func (s *smallClient) loop(ctx *rpc.Ctx, m *cluster.Mount, deadline time.Time) {
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(s.i)))
	version := make([]uint64, s.p.records) // last value this mount wrote per record
	known := make([]bool, s.p.records)     // false once a failed write leaves a record uncertain
	for r := range known {
		known[r] = true
	}
	bufs := [3][]byte{make([]byte, s.p.recSize), make([]byte, s.p.recSize), make([]byte, s.p.metaSize)}

	f, err := open(ctx, m, s.t, tablePath)
	if !s.check(err == nil, "open", tablePath, 0, err) {
		return
	}
	rmwDone := 0
	for txn := 0; txn < s.txns && (txn < 2 || time.Now().Before(deadline)); txn++ {
		if txn%2 == 1 {
			s.metaTxn(ctx, m, txn, bufs[2])
			continue
		}
		if rmwDone > 0 && rmwDone%s.p.dropEvery == 0 {
			closeFile(ctx, m, s.t, &s.tally, f)
			m.DropCaches()
			if f, err = open(ctx, m, s.t, tablePath); !s.check(err == nil, "open", tablePath, 0, err) {
				return
			}
		}
		rmwDone++
		rec := rng.Intn(s.p.records)
		if s.rmwTxn(ctx, m, f, rec, version[rec], known[rec], bufs[0], bufs[1]) {
			version[rec]++
			known[rec] = true
		} else {
			known[rec] = false
		}
	}
	closeFile(ctx, m, s.t, &s.tally, f)
}

// rmwTxn reads record rec, checks it holds version ver (when known), writes
// version ver+1 and fsyncs.  It reports whether the write was made durable.
func (s *smallClient) rmwTxn(ctx *rpc.Ctx, m *cluster.Mount, f *cluster.File, rec int, ver uint64, known bool, want, next []byte) bool {
	off := s.recOff(rec)
	fill(want, s.seed, uint64(s.i), uint64(rec), ver)
	fill(next, s.seed, uint64(s.i), uint64(rec), ver+1)

	t0 := time.Now()
	sp := s.t.begin(ctx, opRead)
	pl, n, err := m.Read(ctx, f, off, s.p.recSize)
	sp.end()
	if err == nil {
		if n != s.p.recSize || (known && !matches(pl.Bytes, want, s.p.wrongByte)) {
			err = errMismatch
		}
		pl.Release()
	}
	readOK := s.check(err == nil, "rmw read", tablePath, off, err)
	sp = s.t.begin(ctx, opWrite)
	err = m.Write(ctx, f, off, payload.Real(next))
	sp.end()
	if err == nil {
		sp = s.t.begin(ctx, opFsync)
		err = m.Fsync(ctx, f)
		sp.end()
	}
	lat := time.Since(t0)
	if !s.check(err == nil, "rmw write+fsync", tablePath, off, err) {
		s.rmw.fail()
		return false
	}
	s.payload += 2 * s.p.recSize
	s.written += s.p.recSize
	if readOK {
		s.rmw.add(lat)
	} else {
		s.rmw.fail()
	}
	return true
}

// metaTxn runs one meta transaction.  Its latency covers create, write,
// close and remove; the size check before the remove and the absence check
// after it are untimed.
func (s *smallClient) metaTxn(ctx *rpc.Ctx, m *cluster.Mount, txn int, buf []byte) {
	dir := metaDir(s.i)
	name := fmt.Sprintf("f%d", txn)
	path := dir + "/" + name
	fill(buf, s.seed, uint64(s.i), uint64(txn), 1<<40) // 1<<40: no table record version reaches it
	failed := s.failed

	t0 := time.Now()
	sp := s.t.begin(ctx, opCreate)
	f, err := m.Create(ctx, path)
	sp.end()
	if !s.check(err == nil, "create", path, 0, err) {
		s.meta.fail()
		return
	}
	sp = s.t.begin(ctx, opWrite)
	err = m.Write(ctx, f, 0, payload.Real(buf))
	sp.end()
	s.check(err == nil, "write", path, 0, err)
	closeFile(ctx, m, s.t, &s.tally, f)
	timed := time.Since(t0)

	if f, err = open(ctx, m, s.t, path); s.check(err == nil, "reopen", path, 0, err) {
		size, err := m.Stat(ctx, f)
		if err == nil && size != s.p.metaSize {
			err = fmt.Errorf("size %d, wrote %d", size, s.p.metaSize)
		}
		s.check(err == nil, "stat", path, 0, err)
		closeFile(ctx, m, s.t, &s.tally, f)
	}

	t1 := time.Now()
	sp = s.t.begin(ctx, opRemove)
	err = m.Remove(ctx, path)
	sp.end()
	timed += time.Since(t1)
	s.check(err == nil, "remove", path, 0, err)

	names, err := m.ReadDir(ctx, dir)
	for _, n := range names {
		if n == name {
			err = fmt.Errorf("%s still listed after remove", name)
		}
	}
	if s.check(err == nil, "readdir", dir, 0, err) && s.failed == failed {
		s.meta.add(timed)
		s.payload += s.p.metaSize
		s.written += s.p.metaSize
	} else {
		s.meta.fail()
	}
}
