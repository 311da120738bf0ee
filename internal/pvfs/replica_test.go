package pvfs

import (
	"bytes"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/xdr"
)

// probeConn counts the extent reads a daemon conn receives and, when down,
// fails them as a crashed node would.
type probeConn struct {
	rpc.Conn
	reads int
	down  bool
}

func (c *probeConn) Call(ctx *rpc.Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	if proc == ProcIORead {
		c.reads++
		if c.down {
			return &rpc.DownError{Node: "probe"}
		}
	}
	return c.Conn.Call(ctx, proc, args, rep)
}

// TestReadAlternatesSkipRetiredServer pins the replica ladder's liveness
// filter: once a daemon is retired (drained out of membership), a failed
// read never fails over onto it, exactly like the NFS client's departed
// pNFS devices.
func TestReadAlternatesSkipRetiredServer(t *testing.T) {
	const nDev, stripe = 4, 64 << 10
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	mdsNode := f.AddNode(simnet.NodeConfig{Name: "mds"})
	clNode := f.AddNode(simnet.NodeConfig{Name: "client0"})
	costs := DefaultCosts()
	var mdsConns, clConns []rpc.Conn
	probes := make([]*probeConn, nDev)
	for i := range probes {
		n := f.AddNode(simnet.NodeConfig{Name: "io" + string(rune('0'+i))})
		NewStorageServer(StorageConfig{Fabric: f, Node: n, Costs: costs})
		mdsConns = append(mdsConns, &rpc.SimTransport{Fabric: f, Src: mdsNode, Dst: n, Service: ServiceIO})
		probes[i] = &probeConn{Conn: &rpc.SimTransport{Fabric: f, Src: clNode, Dst: n, Service: ServiceIO}}
		clConns = append(clConns, probes[i])
	}
	NewMetaServer(MetaConfig{
		Fabric: f, Node: mdsNode, Costs: costs,
		Dist:    DistParams{StripeSize: stripe, NumServers: nDev, Copies: 2},
		IOConns: mdsConns,
	})
	client := NewClient(ClientConfig{
		Node: clNode, Costs: costs,
		Meta:  &rpc.SimTransport{Fabric: f, Src: clNode, Dst: mdsNode, Service: ServiceMeta},
		IO:    clConns,
		Retry: rpc.RetryPolicy{Max: 1},
	})
	data := bytes.Repeat([]byte{0x5a}, stripe)
	k.Go("app", func(p *sim.Proc) {
		ctx := &rpc.Ctx{P: p}
		file, err := client.Create(ctx, "/r")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := client.Write(ctx, file, 0, payload.Real(data), false); err != nil {
			t.Error(err)
			return
		}
		read := func() error {
			got, _, err := client.Read(ctx, file, 0, stripe, true)
			if err == nil && !bytes.Equal(got.Bytes, data) {
				t.Error("replica read returned wrong bytes")
			}
			return err
		}
		// Find the primary device of the extent, then its replica.
		if err := read(); err != nil {
			t.Error(err)
			return
		}
		primary := -1
		for i, pc := range probes {
			if pc.reads > 0 {
				primary = i
			}
		}
		if primary < 0 {
			t.Error("no daemon served the read")
			return
		}
		alt := (primary + nDev/2) % nDev

		// Control: with the primary down, the read fails over to the
		// live replica.
		probes[primary].down = true
		before := probes[alt].reads
		if err := read(); err != nil {
			t.Errorf("failover to live replica: %v", err)
		}
		if probes[alt].reads == before {
			t.Error("live replica was not tried")
		}

		// Retired replica: never tried, and the primary's failure surfaces.
		client.RetireServer(uint32(alt))
		before = probes[alt].reads
		if err := read(); !rpc.Retryable(err) {
			t.Errorf("read with only a retired replica: err = %v, want the primary's down error", err)
		}
		if probes[alt].reads != before {
			t.Errorf("retired daemon %d was tried as an alternate", alt)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
