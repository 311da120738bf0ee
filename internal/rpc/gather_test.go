package rpc_test

import (
	"bytes"
	"testing"

	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// gatherSizes straddles xdr.GatherMin, with lengths that are and are not
// multiples of 4, plus one full 2 MB bulk request.
var gatherSizes = []int{1, 4093, xdr.GatherMin - 1, xdr.GatherMin, xdr.GatherMin + 1,
	xdr.GatherMin + 2, xdr.GatherMin + 3, 2<<20 + 1}

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// payloadMessages builds every payload-carrying wire message around data.
func payloadMessages(data []byte) map[string]xdr.Marshaler {
	p := payload.Real(data)
	return map[string]xdr.Marshaler{
		"nfs OpWrite": &nfs.CompoundArgs{Tag: "w", Session: 1, Slot: 2, Seq: 3, Ops: []nfs.Op{
			&nfs.OpPutFH{FH: 9}, &nfs.OpWrite{StateID: 5, Off: 4096, Data: p, Stable: true}}},
		"nfs ResRead": &nfs.CompoundRep{Results: []nfs.Result{
			&nfs.ResPutFH{}, &nfs.ResRead{Eof: true, Data: p, Sum: 7, HasSum: true}}},
		"pvfs IOWriteArgs": &pvfs.IOWriteArgs{Handle: 3, Off: 1 << 20, Data: p, Sync: true},
		"pvfs IOReadRep":   &pvfs.IOReadRep{Data: p, Eof: true, Sum: 11, HasSum: true},
	}
}

// TestPayloadMessagesGatherExactly pins that gather-write framing leaves
// the wire bytes of every payload-carrying message unchanged: the
// segments concatenate to the contiguous encoding, and bulk payloads are
// referenced, not copied.
func TestPayloadMessagesGatherExactly(t *testing.T) {
	for _, n := range gatherSizes {
		data := fill(n)
		for name, m := range payloadMessages(data) {
			var e xdr.Encoder
			e.Gather()
			m.MarshalXDR(&e)
			segs := e.Buffers(nil)
			if !bytes.Equal(bytes.Join(segs, nil), xdr.Marshal(m)) {
				t.Fatalf("%s n=%d: gathered segments differ from the contiguous encoding", name, n)
			}
			referenced := false
			for _, s := range segs {
				referenced = referenced || (len(s) > 0 && &s[0] == &data[0])
			}
			if referenced != (n >= xdr.GatherMin) {
				t.Fatalf("%s n=%d: payload referenced=%v, want %v", name, n, referenced, n >= xdr.GatherMin)
			}
		}
	}
}

const (
	procNFSWrite  = 1
	procPVFSWrite = 2
)

// copyBack answers with a pooled copy of the request payload that the
// handler context releases after the reply is written — the same lifetime
// real servers give their read buffers.  With pool poisoning on, a reply
// gathered from a buffer recycled too early arrives as 0xA5 bytes.
func copyBack(ctx *rpc.Ctx, p payload.Payload) payload.Payload {
	buf := rpc.GetBuf(int(p.Len()))
	copy(buf, p.Bytes)
	ctx.Defer(func() { rpc.PutBuf(buf) })
	return payload.Real(buf)
}

// TestPayloadMessagesTCPRoundTrip sends each payload-carrying request over
// a loopback socket and has the server echo its payload in the matching
// reply, for every size around the gather threshold.
func TestPayloadMessagesTCPRoundTrip(t *testing.T) {
	defer rpc.SetPoisonOnPut(rpc.SetPoisonOnPut(true))
	reg := rpc.NewRegistry()
	reg.Register(procNFSWrite, func() xdr.Unmarshaler { return &nfs.CompoundArgs{} })
	reg.Register(procPVFSWrite, func() xdr.Unmarshaler { return &pvfs.IOWriteArgs{} })
	handler := func(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
		switch a := req.(type) {
		case *nfs.CompoundArgs:
			w := a.Ops[1].(*nfs.OpWrite)
			return &nfs.CompoundRep{Results: []nfs.Result{
				&nfs.ResPutFH{}, &nfs.ResRead{Data: copyBack(ctx, w.Data)}}}, rpc.StatusOK
		case *pvfs.IOWriteArgs:
			return &pvfs.IOReadRep{Data: copyBack(ctx, a.Data)}, rpc.StatusOK
		}
		return nil, rpc.StatusGarbageArgs
	}
	s, err := rpc.ListenTCP("127.0.0.1:0", reg, handler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := rpc.DialTCP(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range gatherSizes {
		data := fill(n)
		check := func(kind string, got payload.Payload) {
			t.Helper()
			if !bytes.Equal(got.Bytes, data) {
				t.Fatalf("%s n=%d: echoed payload differs", kind, n)
			}
			got.Release()
		}
		var nrep nfs.CompoundRep
		args := &nfs.CompoundArgs{Ops: []nfs.Op{&nfs.OpPutFH{FH: 1}, &nfs.OpWrite{Data: payload.Real(data)}}}
		if err := c.Call(&rpc.Ctx{}, procNFSWrite, args, &nrep); err != nil {
			t.Fatalf("nfs n=%d: %v", n, err)
		}
		check("nfs", nrep.Results[1].(*nfs.ResRead).Data)
		var prep pvfs.IOReadRep
		if err := c.Call(&rpc.Ctx{}, procPVFSWrite, &pvfs.IOWriteArgs{Data: payload.Real(data)}, &prep); err != nil {
			t.Fatalf("pvfs n=%d: %v", n, err)
		}
		check("pvfs", prep.Data)
	}
	if err := c.Dead(); err != nil {
		t.Fatalf("connection died: %v", err)
	}
}
