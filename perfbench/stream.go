package main

import (
	"bytes"
	"fmt"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// streamParams sizes the tcp-stream workload.
type streamParams struct {
	mounts   int
	fileSize int64   // per mount; the fixed working set
	reqSize  int64   // application request size
	blocks   int     // distinct content blocks per mount
	passRate float64 // write+read passes per second per mount on an unloaded host; sets the quota
	// wrongByte makes verification expect one flipped byte, so every read
	// must fail its check (the benchmark's own negative test).
	wrongByte bool
}

var defaultStream = streamParams{mounts: 2, fileSize: 32 << 20, reqSize: 2 << 20, blocks: 5, passRate: 5}

func (p streamParams) String() string {
	return fmt.Sprintf("mounts=%d file=%dMiB request=%dKiB blocks=%d quota=%g-passes/s/mount transport=tcp real=true",
		p.mounts, p.fileSize>>20, p.reqSize>>10, p.blocks, p.passRate)
}

// streamClient is one mount's loop state and tally of the measured phase.
type streamClient struct {
	p    streamParams
	t    *tracer
	path string
	tally
	passes            int
	written, read     int64
	writeT, readT     time.Duration
	writeLat, readLat latencies
}

// runStream is tcp-stream: each mount writes its private file in reqSize
// requests, fsyncs and closes, drops its caches, reads the file back and
// verifies every byte.  Pass k writes block (r+k) mod blocks at request r,
// so content differs between consecutive passes and a stale read fails.
func runStream(rc runConfig, p streamParams) (*phase, error) {
	blocks := make([][][]byte, p.mounts) // per mount, generated before set-up
	for i := range blocks {
		for b := 0; b < p.blocks; b++ {
			buf := make([]byte, p.reqSize)
			fill(buf, rc.seed, uint64(i), uint64(b), 0)
			blocks[i] = append(blocks[i], buf)
		}
	}
	reqs := int(p.fileSize / p.reqSize)
	block := func(i, pass, r int) []byte { return blocks[i][(r+pass)%p.blocks] }

	cfg := cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: p.mounts, Transport: cluster.TransportTCP, Real: true, Seed: rc.seed}
	cl, setup, err := setupRepeated(rc, cfg, onEach(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, streamPath(i))
		if err != nil {
			return err
		}
		for r := 0; r < reqs; r++ {
			if err := m.Write(ctx, f, int64(r)*p.reqSize, payload.Real(block(i, 0, r))); err != nil {
				return err
			}
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}))
	if err != nil {
		return nil, fmt.Errorf("tcp-stream setup: %w", err)
	}
	defer cl.Close()

	per := make([]streamClient, p.mounts) // one per mount goroutine
	passes := rc.quota(p.passRate)
	m, err := measure(cl, rc, func(deadline time.Time) error {
		_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			s := &per[i]
			s.p, s.t, s.path = p, rc.trace, streamPath(i)
			for pass := 1; pass <= passes && (pass == 1 || time.Now().Before(deadline)); pass++ {
				s.passes++
				content := func(r int) []byte { return block(i, pass, r) }
				s.write(ctx, m, content)
				m.DropCaches()
				s.readBack(ctx, m, content)
			}
			return nil
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("tcp-stream: %w", err)
	}

	ph := &phase{setup: setup, measured: m}
	var wl, rl, all latencies
	var writeRate, readRate float64
	for i := range per {
		s := &per[i]
		ph.add(s.tally)
		all.merge(&s.writeLat)
		all.merge(&s.readLat)
		if s.passes < passes {
			ph.note("mount %d stopped at %d of %d passes: the run reached %d times its length", i, s.passes, passes, overrun)
		}
		ph.work.written += s.written
		ph.work.payload += s.written + s.read
		ph.work.ops += int64(s.writeLat.succeeded() + s.readLat.succeeded())
		ph.work.reads += int64(s.readLat.succeeded())
		wl.merge(&s.writeLat)
		rl.merge(&s.readLat)
		writeRate += ratio(float64(s.written)/1e6, s.writeT.Seconds())
		readRate += ratio(float64(s.read)/1e6, s.readT.Seconds())
	}
	ph.finish(&all, &wl)
	ph.detail("write_mb_s", writeRate, "MB/s", "")
	ph.detail("read_mb_s", readRate, "MB/s", "")
	ph.latencyDetail("write_req", &wl, true)
	ph.latencyDetail("read_req", &rl, true)
	ph.note("working set %d MiB per mount, %d MiB total", p.fileSize>>20, int64(p.mounts)*p.fileSize>>20)
	return ph, nil
}

func streamPath(i int) string { return fmt.Sprintf("/stream.%d", i) }

// write overwrites the mount's file with one pass of content, then fsyncs
// and closes it.  The phase time runs from open to close.
func (s *streamClient) write(ctx *rpc.Ctx, m *cluster.Mount, content func(r int) []byte) {
	start := time.Now()
	defer func() { s.writeT += time.Since(start) }()
	f, err := open(ctx, m, s.t, s.path)
	if !s.check(err == nil, "open", s.path, 0, err) {
		return
	}
	for r := 0; r < int(s.p.fileSize/s.p.reqSize); r++ {
		off := int64(r) * s.p.reqSize
		t0 := time.Now()
		sp := s.t.begin(ctx, opWrite)
		err := m.Write(ctx, f, off, payload.Real(content(r)))
		sp.end()
		if s.check(err == nil, "write", s.path, off, err) {
			s.writeLat.add(time.Since(t0))
			s.written += s.p.reqSize
		} else {
			s.writeLat.fail()
		}
	}
	sp := s.t.begin(ctx, opFsync)
	err = m.Fsync(ctx, f)
	sp.end()
	s.check(err == nil, "fsync", s.path, 0, err)
	closeFile(ctx, m, s.t, &s.tally, f)
}

// readBack reads the mount's file and verifies every byte against the pass.
func (s *streamClient) readBack(ctx *rpc.Ctx, m *cluster.Mount, content func(r int) []byte) {
	start := time.Now()
	defer func() { s.readT += time.Since(start) }()
	f, err := open(ctx, m, s.t, s.path)
	if !s.check(err == nil, "open", s.path, 0, err) {
		return
	}
	for r := 0; r < int(s.p.fileSize/s.p.reqSize); r++ {
		off := int64(r) * s.p.reqSize
		t0 := time.Now()
		sp := s.t.begin(ctx, opRead)
		pl, n, err := m.Read(ctx, f, off, s.p.reqSize)
		sp.end()
		lat := time.Since(t0)
		if err == nil {
			if n != s.p.reqSize || !matches(pl.Bytes, content(r), s.p.wrongByte) {
				err = errMismatch
			}
			pl.Release()
		}
		if s.check(err == nil, "read", s.path, off, err) {
			s.readLat.add(lat)
			s.read += n
		} else {
			s.readLat.fail()
		}
	}
	closeFile(ctx, m, s.t, &s.tally, f)
}

// matches reports whether got equals want, or, with wrongByte, want with
// its first byte flipped.
func matches(got, want []byte, wrongByte bool) bool {
	if !wrongByte {
		return bytes.Equal(got, want)
	}
	if len(got) != len(want) || len(got) == 0 {
		return false
	}
	return got[0] == want[0]^0xff && bytes.Equal(got[1:], want[1:])
}
