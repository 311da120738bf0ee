package pvfs

import (
	"fmt"
	"sync"

	"dpnfs/internal/fserr"
	"dpnfs/internal/ioengine"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// ClientConfig describes one PVFS2 client library instance.
type ClientConfig struct {
	Node *simnet.Node
	Meta rpc.Conn
	IO   []rpc.Conn // one per storage daemon, in device order
	// IOIDs gives the stable server ID of each IO conn.  When empty the
	// conns are assumed positional (IDs 0..len(IO)-1), which matches the
	// legacy static-membership layout.  Files resolve their daemon conns
	// through these IDs via the placement's DistParams.Servers, so a
	// client keeps addressing the right daemons after membership changes.
	IOIDs []uint32
	Costs Costs
	// Tuning sets the client's striped-I/O engine.  MaxFlight defaults to 8
	// ("limited request parallelization", paper §5) and MaxTransfer to
	// 256 KiB, the PVFS2 flow buffer ("large transfer buffers").  The
	// library has no write-back or readahead — all its I/O is synchronous
	// at Class — so BackgroundShare only matters if an embedding adds
	// background traffic on the same engine; only reads hedge.
	ioengine.Tuning
	// Retry bounds the per-daemon retry loop that rides out injected
	// storage-node crashes (internal/faults): striped I/O and fsync to a
	// crashed daemon back off and retry until the node restarts or the
	// budget runs out.  Zero-valued fields take rpc.DefaultRetryPolicy.
	Retry rpc.RetryPolicy
	// Class is the QoS class all of this client's striped I/O runs under
	// (zero value = Foreground).  The cluster's rebalance engine sets
	// Background here so migration traffic yields to application I/O.
	Class ioengine.Class
	// Issuer labels this client's engine metrics (empty = "pvfs").
	Issuer string
	// Metrics is the shared observability registry (docs/METRICS.md); nil
	// discards.
	Metrics *metrics.Registry
}

// Client is the PVFS2 client library: stateless, no data cache, no
// write-back — every Read/Write goes to the daemons synchronously, fanned
// out through the shared striped-I/O engine (internal/ioengine).
type Client struct {
	cfg    ClientConfig
	stats  *clientStats
	engine *ioengine.Engine
	retry  ioengine.Policy
	// mu guards io and retired: AddServer may race with newFile when the
	// cluster reconfigures while clients are running.
	mu sync.Mutex
	// io keys the daemon conns by stable server ID.
	io map[uint32]rpc.Conn
	// retired holds the IDs of daemons that have left membership
	// (RetireServer).  Their conns stay in io, so data placed under an
	// older distribution stays reachable, but the replica rung never
	// fails over onto them.
	retired map[uint32]bool
	// repairs is the read-repair claim set of the replica rung.
	repairs *ioengine.Repairs
}

// NewClient returns a client with defaults applied.  Striped reads and
// writes flow through the I/O engine under a retry policy, so they survive
// a daemon outage shorter than the retry budget; Sync runs its serial
// flushes under the same retry loop.
func NewClient(cfg ClientConfig) *Client {
	if cfg.MaxFlight <= 0 {
		cfg.MaxFlight = 8
	}
	if cfg.MaxTransfer <= 0 {
		cfg.MaxTransfer = 256 << 10 // PVFS2 flow buffer size
	}
	stats := newClientStats(cfg.Metrics)
	name := "pvfs-client"
	if cfg.Node != nil {
		name = cfg.Node.Name + "/pvfs"
	}
	issuer := cfg.Issuer
	if issuer == "" {
		issuer = "pvfs"
	}
	c := &Client{
		cfg:     cfg,
		stats:   stats,
		retired: make(map[uint32]bool),
		repairs: ioengine.NewRepairs(stats.readRepairs),
	}
	c.engine = ioengine.New(ioengine.Config{
		Name:    name,
		Issuer:  issuer,
		Tuning:  cfg.Tuning,
		Metrics: cfg.Metrics,
	})
	c.retry = ioengine.WithRetry(cfg.Retry, stats.ioRetries.Inc)
	c.io = make(map[uint32]rpc.Conn, len(cfg.IO))
	for i, conn := range cfg.IO {
		id := uint32(i)
		if i < len(cfg.IOIDs) {
			id = cfg.IOIDs[i]
		}
		c.io[id] = conn
	}
	return c
}

// AddServer registers (or replaces) the conn for a storage daemon by its
// stable server ID, so files placed on a newly joined node resolve their
// conns without rebuilding the client.
func (c *Client) AddServer(id uint32, conn rpc.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.io[id] = conn
}

// RetireServer marks a storage daemon as departed from membership (a
// drained node): its conn is kept for reads under older placements, but it
// is never tried as a replica alternate — the same liveness rule the NFS
// client applies to departed pNFS devices.
func (c *Client) RetireServer(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired[id] = true
}

// serverLive reports whether stripe device dev of f may take a replica
// failover: in range, wired to a conn, and not retired.
func (c *Client) serverLive(f *File, dev int) bool {
	if dev < 0 || dev >= len(f.io) || f.io[dev] == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.retired[f.ids[dev]]
}

// File is an open PVFS2 file reference.  Data is the handle the datafiles
// live under (it diverges from Handle after a migration); ids/io hold the
// daemon IDs and conns for the file's placement, in stripe-device order.
type File struct {
	Handle Handle
	Data   Handle
	Dist   DistParams
	mapper stripe.Mapper
	ids    []uint32
	io     []rpc.Conn
}

func (c *Client) chargeOp(ctx *rpc.Ctx, bytes int64) {
	var cpu *sim.KServer
	if c.cfg.Node != nil {
		cpu = c.cfg.Node.CPU
	}
	ctx.UseCPU(cpu, c.cfg.Costs.ClientPerOp+perMB(c.cfg.Costs.ClientPerMB, bytes))
}

func (c *Client) newFile(h, data Handle, dist DistParams) *File {
	if data == 0 {
		data = h
	}
	ids := dist.ServerIDs()
	f := &File{
		Handle: h,
		Data:   data,
		Dist:   dist,
		mapper: dist.Mapper(),
		ids:    ids,
		io:     make([]rpc.Conn, len(ids)),
	}
	c.mu.Lock()
	for i, id := range ids {
		f.io[i] = c.io[id]
	}
	c.mu.Unlock()
	return f
}

// conn returns the file's daemon conn for stripe device dev, or an error if
// the placement names a server this client has no conn for.
func (f *File) conn(dev int) (rpc.Conn, error) {
	if dev < 0 || dev >= len(f.io) || f.io[dev] == nil {
		return nil, &rpc.NoConnError{Dev: dev}
	}
	return f.io[dev], nil
}

// Create makes a new file and returns an open reference.
func (c *Client) Create(ctx *rpc.Ctx, path string) (*File, error) {
	c.chargeOp(ctx, 0)
	var rep CreateRep
	if err := c.cfg.Meta.Call(ctx, ProcCreate, &CreateArgs{Path: path}, &rep); err != nil {
		return nil, err
	}
	if rep.Errno != 0 {
		return nil, rep.Errno.Err()
	}
	return c.newFile(rep.Handle, rep.Data, rep.Dist), nil
}

// Open resolves an existing file.
func (c *Client) Open(ctx *rpc.Ctx, path string) (*File, error) {
	c.chargeOp(ctx, 0)
	var rep LookupRep
	if err := c.cfg.Meta.Call(ctx, ProcLookup, &LookupArgs{Path: path}, &rep); err != nil {
		return nil, err
	}
	if rep.Errno != 0 {
		return nil, rep.Errno.Err()
	}
	if rep.IsDir {
		return nil, fmt.Errorf("pvfs: %s is a directory", path)
	}
	return c.newFile(rep.Handle, rep.Data, rep.Dist), nil
}

// Write stores data at off.  Sync forces the touched daemons to flush to
// stable storage before returning.  It returns the file's new logical size
// as reconstructed from the daemons' object sizes.
func (c *Client) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload, syncData bool) (int64, error) {
	c.chargeOp(ctx, data.Len())
	reqs := c.engine.Prepare(f.mapper.Map(off, data.Len()))
	c.stats.ioRequests.Add(uint64(len(reqs)))
	if n := data.Len(); n > 0 {
		c.stats.bytesWrite.Add(uint64(n))
	}
	var mu sync.Mutex // requests run on concurrent processes/goroutines
	var logical int64
	// The library has no write-back: the application is blocked on this
	// write, so it rides the window at the client's configured class
	// (Foreground by default; never hedged — writes are not idempotent
	// against concurrent writers).
	err := c.engine.RunWith(ctx, ioengine.RunOpts{Class: c.cfg.Class}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
		conn, err := f.conn(r.Dev)
		if err != nil {
			return err
		}
		var rep IOWriteRep
		args := &IOWriteArgs{
			Handle: f.Data,
			Off:    r.DevOff,
			Data:   data.Slice(r.Off-off, r.Len),
			Sync:   syncData,
		}
		if err := conn.Call(ctx, ProcIOWrite, args, &rep); err != nil {
			return err
		}
		if rep.Errno != 0 {
			return rep.Errno.Err()
		}
		mu.Lock()
		if end := logicalEnd(f.mapper, r.Dev, rep.ObjSize); end > logical {
			logical = end
		}
		mu.Unlock()
		return nil
	}, c.retry)
	return logical, err
}

// Read fetches up to n bytes at off.  It returns the data (real bytes only
// if wantReal) and the number of logical bytes before EOF.
func (c *Client) Read(ctx *rpc.Ctx, f *File, off, n int64, wantReal bool) (payload.Payload, int64, error) {
	c.chargeOp(ctx, n)
	seed := off / f.Dist.StripeSize
	reqs := c.engine.Prepare(f.mapper.ReadMap(off, n, seed))
	c.stats.ioRequests.Add(uint64(len(reqs)))
	var buf []byte
	if wantReal {
		buf = make([]byte, n)
	}
	// maxEnd tracks the furthest logical byte any daemon returned; bytes
	// below it that a daemon skipped are holes (zeros).
	var mu sync.Mutex
	var maxEnd int64
	deliver := func(r stripe.Extent, data payload.Payload) {
		got := data.Len()
		if got == 0 {
			return
		}
		// The copy stays under mu: a hedged duplicate writes the same
		// bytes to the same region as its primary.
		mu.Lock()
		if end := r.Off + got; end > maxEnd {
			maxEnd = end
		}
		if wantReal && data.Bytes != nil {
			copy(buf[r.Off-off:], data.Bytes)
		}
		mu.Unlock()
	}
	primary := func(ctx *rpc.Ctx, r stripe.Extent) error {
		data, err := c.readExtent(ctx, f, r, wantReal)
		if err != nil {
			return err
		}
		deliver(r, data)
		return nil
	}
	// Synchronous read: runs at the client's configured class, and is
	// eligible for hedged duplicates when the engine has hedging enabled
	// (reads are idempotent).  A dead device or a corrupt block is first
	// retried on each surviving copy (the shared replica rung, which also
	// read-repairs corruption), then under the bounded retry loop.
	policies := []ioengine.Policy{c.retry}
	if rm, ok := f.mapper.(*stripe.Replicated); ok {
		policies = append(policies, ioengine.WithReplicas(ioengine.Replicas{
			Map:  rm,
			Live: func(dev int) bool { return c.serverLive(f, dev) },
			Read: func(ctx *rpc.Ctx, r stripe.Extent, real bool) (payload.Payload, error) {
				return c.readExtent(ctx, f, r, wantReal || real)
			},
			Deliver: deliver,
			Rewrite: func(ctx *rpc.Ctx, r stripe.Extent, good payload.Payload) error {
				conn, err := f.conn(r.Dev)
				if err != nil {
					return err
				}
				var rep IOWriteRep
				if err := conn.Call(ctx, ProcIOWrite, &IOWriteArgs{Handle: f.Data, Off: r.DevOff, Data: good}, &rep); err != nil {
					return err
				}
				return rep.Errno.Err()
			},
			Repairs: c.repairs,
			File:    uint64(f.Data),
		}))
	}
	err := c.engine.RunWith(ctx, ioengine.RunOpts{Class: c.cfg.Class, Hedge: true}, reqs, primary, policies...)
	if err != nil {
		return payload.Payload{}, 0, err
	}
	valid := maxEnd - off
	if valid < 0 {
		valid = 0
	}
	if valid > 0 {
		c.stats.bytesRead.Add(uint64(valid))
	}
	if wantReal {
		return payload.Real(buf[:valid]), valid, nil
	}
	return payload.Synthetic(valid), valid, nil
}

// readExtent issues one extent read to its device's daemon and verifies the
// reply (errno mapping plus the optional wire checksum).
func (c *Client) readExtent(ctx *rpc.Ctx, f *File, r stripe.Extent, wantReal bool) (payload.Payload, error) {
	conn, err := f.conn(r.Dev)
	if err != nil {
		return payload.Payload{}, err
	}
	var rep IOReadRep
	args := &IOReadArgs{Handle: f.Data, Off: r.DevOff, Len: r.Len, WantReal: wantReal}
	if err := conn.Call(ctx, ProcIORead, args, &rep); err != nil {
		return payload.Payload{}, err
	}
	if rep.Errno != 0 {
		if rep.Errno == fserr.Corrupt {
			c.stats.corruptReads.Inc()
		}
		return payload.Payload{}, rep.Errno.Err()
	}
	if rep.HasSum && rep.Data.Bytes != nil && xdr.Checksum(rep.Data.Bytes) != rep.Sum {
		// The payload was damaged after the daemon read it (or on the
		// wire): surface it as the same bounded-retry integrity error a
		// block-checksum mismatch produces.
		c.stats.corruptReads.Inc()
		rep.Data.Release()
		return payload.Payload{}, store.ErrCorrupt
	}
	return rep.Data, nil
}

// Sync flushes the file's buffered data on each storage daemon holding one
// of its datafiles.  The flushes are issued serially, matching the
// sequential datafile flush in the PVFS2 client's fsync path — one source
// of its poor synchronous small-I/O performance (§6.4.1) — each under the
// client's retry loop.
func (c *Client) Sync(ctx *rpc.Ctx, f *File) error {
	c.chargeOp(ctx, 0)
	for dev := range f.io {
		conn, err := f.conn(dev)
		if err != nil {
			return err
		}
		var rep IOFlushRep
		if err := c.cfg.Retry.Do(ctx, c.stats.ioRetries.Inc, func() error {
			return conn.Call(ctx, ProcIOFlush, &IOFlushArgs{Handle: f.Data}, &rep)
		}); err != nil {
			return err
		}
		if rep.Errno != 0 {
			return rep.Errno.Err()
		}
	}
	return nil
}

// GetAttr returns the file's logical size (reconstructed by the MDS from
// every storage daemon).
func (c *Client) GetAttr(ctx *rpc.Ctx, f *File) (int64, error) {
	c.chargeOp(ctx, 0)
	var rep GetAttrRep
	if err := c.cfg.Meta.Call(ctx, ProcGetAttr, &GetAttrArgs{Handle: f.Handle}, &rep); err != nil {
		return 0, err
	}
	if rep.Errno != 0 {
		return 0, rep.Errno.Err()
	}
	return rep.Size, nil
}

// Truncate sets the file's logical size.
func (c *Client) Truncate(ctx *rpc.Ctx, f *File, size int64) error {
	c.chargeOp(ctx, 0)
	var rep TruncateRep
	if err := c.cfg.Meta.Call(ctx, ProcTruncate, &TruncateArgs{Handle: f.Handle, Size: size}, &rep); err != nil {
		return err
	}
	return rep.Errno.Err()
}

// Mkdir creates a directory.
func (c *Client) Mkdir(ctx *rpc.Ctx, path string) error {
	c.chargeOp(ctx, 0)
	var rep MkdirRep
	if err := c.cfg.Meta.Call(ctx, ProcMkdir, &MkdirArgs{Path: path}, &rep); err != nil {
		return err
	}
	return rep.Errno.Err()
}

// Remove unlinks a file (removing its datafiles) or an empty directory.
func (c *Client) Remove(ctx *rpc.Ctx, path string) error {
	c.chargeOp(ctx, 0)
	var rep RemoveRep
	if err := c.cfg.Meta.Call(ctx, ProcRemove, &RemoveArgs{Path: path}, &rep); err != nil {
		return err
	}
	return rep.Errno.Err()
}

// ReadDir lists a directory.
func (c *Client) ReadDir(ctx *rpc.Ctx, path string) ([]string, error) {
	c.chargeOp(ctx, 0)
	var rep ReadDirRep
	if err := c.cfg.Meta.Call(ctx, ProcReadDir, &ReadDirArgs{Path: path}, &rep); err != nil {
		return nil, err
	}
	if rep.Errno != 0 {
		return nil, rep.Errno.Err()
	}
	return rep.Names, nil
}
