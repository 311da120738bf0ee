// Transport abstraction: the same protocol stacks (NFSv4.1 compounds, PVFS2
// requests) run either on the discrete-event simulated fabric — virtual
// time, deterministic, used for regenerating the paper's figures — or over
// real loopback TCP sockets — wall-clock time, used for serving and
// end-to-end integration.  Cluster wiring goes through this interface so any
// architecture can be instantiated on either side without code changes.
package rpc

import (
	"fmt"
	"sync"

	"dpnfs/internal/metrics"
	"dpnfs/internal/simnet"
	"dpnfs/internal/xdr"
)

// Transport wires RPC endpoints addressed by logical node names.
type Transport interface {
	// Serve registers handler for service on the logical node name,
	// decoding requests through reg (reference-passing transports ignore
	// reg), with at most threads concurrent handlers.  It returns the
	// address peers reach the service at.
	Serve(node, service string, reg *Registry, h Handler, threads int) (addr string, err error)
	// Dial returns a Conn from the logical node from to the service
	// registered under (node, service).  Connections may be shared and must
	// be safe for concurrent calls.
	Dial(from, node, service string) (Conn, error)
	// Close tears down every listener and connection the transport owns.
	Close() error
}

// FabricTransport runs endpoints on a simulated fabric: Serve registers a
// dispatcher process, Dial returns a SimTransport conn.  Node names must
// already exist on the fabric (topology is built by the cluster layer).
type FabricTransport struct {
	Fabric *simnet.Fabric
	// Metrics, when set, instruments every conn and served handler
	// (docs/METRICS.md).  Latencies are virtual time.
	Metrics *metrics.Registry

	// connMu guards conns, the (src, dst, service) → SimTransport cache.
	// Conns are stateless beyond their shared stats bundle, so every
	// re-dial of the same edge (a client re-mounting per benchmark run
	// re-dials each data server) reuses one conn instead of rebuilding
	// its metric instruments.
	connMu sync.Mutex
	conns  map[string]*SimTransport
}

// Serve implements Transport via ServeSim.
func (t *FabricTransport) Serve(node, service string, _ *Registry, h Handler, threads int) (string, error) {
	ServeSim(ServerConfig{
		Fabric:  t.Fabric,
		Node:    t.Fabric.Node(node),
		Service: service,
		Threads: threads,
		Handler: instrumentHandler(t.Metrics, "sim", service, h),
	})
	return node, nil
}

// Dial implements Transport with a fabric conn between the two nodes,
// shared across repeat dials of the same (from, node, service) edge.
func (t *FabricTransport) Dial(from, node, service string) (Conn, error) {
	key := from + "\x00" + node + "\x00" + service
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	c := &SimTransport{
		Fabric:  t.Fabric,
		Src:     t.Fabric.Node(from),
		Dst:     t.Fabric.Node(node),
		Service: service,
		stats:   newConnStats(t.Metrics, "sim", service),
	}
	if t.conns == nil {
		t.conns = make(map[string]*SimTransport)
	}
	t.conns[key] = c
	return c, nil
}

// Close implements Transport by shutting the simulation kernel down: the
// service dispatch loops Serve started, and any process still parked or
// never started, exit with their goroutines.  Call it once the cluster's
// runs are over.
func (t *FabricTransport) Close() error {
	t.Fabric.K.Shutdown()
	return nil
}

// TCPTransport runs endpoints on real loopback sockets: Serve starts a
// TCPServer on an ephemeral port, Dial hands out a per-server shared
// connection pool (pipelined calls, lazy reconnect).  Logical node names
// resolve through the transport's own registry, so the same cluster wiring
// code works unmodified.
type TCPTransport struct {
	// Host is the listen/dial host; empty means loopback.
	Host string
	// PoolConns is the per-server connection pool size (0 = default).
	PoolConns int
	// Metrics, when set, instruments every pool and served handler
	// (docs/METRICS.md).  Latencies are wall clock.
	Metrics *metrics.Registry

	mu      sync.Mutex
	servers map[string]*TCPServer // key: node + "/" + service
	addrs   map[string]string     // logical key -> host:port
	pools   map[string]*TCPPool   // one shared pool per server endpoint
	downed  map[string]bool       // fault injection: logical nodes marked down
	closed  bool
}

// SetNodeDown marks (or clears) every service on the logical node as
// unreachable: calls through conns dialed to it fail fast with a retryable
// *DownError, the TCP equivalent of the simulated fabric's crashed node
// (internal/faults).
func (t *TCPTransport) SetNodeDown(node string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.downed == nil {
		t.downed = make(map[string]bool)
	}
	if down {
		t.downed[node] = true
	} else {
		delete(t.downed, node)
	}
}

func (t *TCPTransport) nodeDown(node string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.downed[node]
}

// downGate wraps a pool conn with the transport's node-down check.
type downGate struct {
	tr   *TCPTransport
	node string
	pool *TCPPool
}

// Call implements Conn, rejecting calls while the node is marked down.
func (g *downGate) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	if g.tr.nodeDown(g.node) {
		g.pool.stats.fault()
		return &DownError{Node: g.node}
	}
	return g.pool.Call(ctx, proc, args, rep)
}

// NewTCPTransport returns an empty loopback transport.
func NewTCPTransport(poolConns int) *TCPTransport {
	return &TCPTransport{
		PoolConns: poolConns,
		servers:   make(map[string]*TCPServer),
		addrs:     make(map[string]string),
		pools:     make(map[string]*TCPPool),
	}
}

func (t *TCPTransport) host() string {
	if t.Host != "" {
		return t.Host
	}
	return "127.0.0.1"
}

// Serve implements Transport: it listens on an ephemeral port and bounds
// handler concurrency to threads (the "NFS server threads" knob) across all
// of the service's connections.
func (t *TCPTransport) Serve(node, service string, reg *Registry, h Handler, threads int) (string, error) {
	h = instrumentHandler(t.Metrics, "tcp", service, h)
	if threads > 0 {
		sem := make(chan struct{}, threads)
		inner := h
		h = func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
			sem <- struct{}{}
			defer func() { <-sem }()
			return inner(ctx, proc, req)
		}
	}
	key := node + "/" + service
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", errConnClosed
	}
	if _, dup := t.servers[key]; dup {
		return "", fmt.Errorf("rpc: service %s already registered", key)
	}
	srv, err := ListenTCP(t.host()+":0", reg, h)
	if err != nil {
		return "", err
	}
	t.servers[key] = srv
	t.addrs[key] = srv.Addr()
	return srv.Addr(), nil
}

// Dial implements Transport.  Pools are keyed per (from, node, service):
// each client node gets its own pipelined connections to a server, like
// the per-mount connections of a real deployment — a shared pool would
// serialize every client's bulk frames through one socket pair.
func (t *TCPTransport) Dial(from, node, service string) (Conn, error) {
	serverKey := node + "/" + service
	poolKey := from + "->" + serverKey
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errConnClosed
	}
	if p, ok := t.pools[poolKey]; ok {
		return &downGate{tr: t, node: node, pool: p}, nil
	}
	addr, ok := t.addrs[serverKey]
	if !ok {
		return nil, fmt.Errorf("rpc: no service registered at %s", serverKey)
	}
	p := NewTCPPool(addr, t.PoolConns)
	p.stats = newConnStats(t.Metrics, "tcp", service)
	t.pools[poolKey] = p
	return &downGate{tr: t, node: node, pool: p}, nil
}

// Addr reports the bound address for (node, service), or "" if absent.
func (t *TCPTransport) Addr(node, service string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[node+"/"+service]
}

// Addrs returns a snapshot of every registered "node/service" -> address
// mapping (cmd/dpnfs-serve prints it as the cluster's export table).
func (t *TCPTransport) Addrs() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.addrs))
	for k, v := range t.addrs {
		out[k] = v
	}
	return out
}

// Close implements Transport: client pools close first so in-flight calls
// fail fast, then listeners drain their handlers.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pools := t.pools
	servers := t.servers
	t.pools = make(map[string]*TCPPool)
	t.servers = make(map[string]*TCPServer)
	t.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
	var firstErr error
	for _, s := range servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
