package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
)

func TestAllArchitecturesRoundTripRealBytes(t *testing.T) {
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 2, Real: true, StripeSize: 64 << 10})
			pattern := func(i int) []byte {
				data := make([]byte, 300_000) // spans several stripes
				for j := range data {
					data[j] = byte((j*7 + i*13) % 251)
				}
				return data
			}
			_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				path := fmt.Sprintf("/f%d", i)
				f, err := m.Create(ctx, path)
				if err != nil {
					return fmt.Errorf("create: %w", err)
				}
				want := pattern(i)
				if err := m.Write(ctx, f, 0, payload.Real(want)); err != nil {
					return fmt.Errorf("write: %w", err)
				}
				if err := m.Close(ctx, f); err != nil {
					return fmt.Errorf("close: %w", err)
				}
				// Re-open and read back through the protocol stack.
				g, err := m.Open(ctx, path)
				if err != nil {
					return fmt.Errorf("reopen: %w", err)
				}
				got, n, err := m.Read(ctx, g, 0, int64(len(want)))
				if err != nil || n != int64(len(want)) {
					return fmt.Errorf("read: n=%d err=%v", n, err)
				}
				if !bytes.Equal(got.Bytes, want) {
					return fmt.Errorf("data corrupted through %s stack", arch)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirectLayoutsAreDirect(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1})
	_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		if !m.PNFS() {
			return fmt.Errorf("direct-pnfs mount did not obtain a device list")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNFSv4HasNoPNFS(t *testing.T) {
	cl := New(Config{Arch: ArchNFSv4, Clients: 1})
	_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		if m.PNFS() {
			return fmt.Errorf("plain NFSv4 mount obtained layouts")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirectWritesLandStriped(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, StripeSize: 64 << 10})
	const total = 6 * 64 << 10 // exactly one stripe unit per storage node
	_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, "/striped")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Synthetic(total)); err != nil {
			return err
		}
		return m.Close(ctx, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	at, err := cl.PVFSMeta.Namespace().LookupPath("/striped")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range cl.Storage {
		if got := s.ObjectSize(pvfsHandle(at.ID)); got != 64<<10 {
			t.Errorf("storage node %d holds %d bytes, want %d", i, got, 64<<10)
		}
	}
	// The MDS learned the size via LAYOUTCOMMIT, not via fan-out.
	if at2, _ := cl.PVFSMeta.Namespace().LookupPath("/striped"); at2.Size != total {
		t.Errorf("MDS size %d, want %d (LAYOUTCOMMIT path broken)", at2.Size, total)
	}
}

func TestTwoTierForwardsBetweenDataServers(t *testing.T) {
	// In 2-tier pNFS the client stripes blindly, so data servers must move
	// data between each other; storage node NICs carry the extra traffic.
	cl := New(Config{Arch: ArchPNFS2Tier, Clients: 1, StripeSize: 2 << 20, WSize: 2 << 20})
	const total = 48 << 20
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, "/fwd")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Synthetic(total)); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	var interDS time.Duration
	for _, n := range cl.storageNodes {
		interDS += n.NIC.TxBusy()
	}
	// Data servers transmitted data (forwarding writes to the true owner
	// nodes); with direct access they would transmit ~nothing on a write.
	if interDS < 100*time.Millisecond {
		t.Fatalf("storage nodes transmitted for only %v; no inter-DS forwarding", interDS)
	}

	clD := New(Config{Arch: ArchDirectPNFS, Clients: 1, StripeSize: 2 << 20})
	if _, err := clD.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, "/fwd")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Synthetic(total)); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	var directTx time.Duration
	for _, n := range clD.storageNodes {
		directTx += n.NIC.TxBusy()
	}
	if directTx*10 > interDS {
		t.Fatalf("direct DS tx %v vs 2-tier %v: direct access should eliminate forwarding", directTx, interDS)
	}
}

func TestWarmCachesMakeReadsFast(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1})
	const size = 64 << 20
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, "/warm")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Synthetic(size)); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WarmCaches("/warm"); err != nil {
		t.Fatal(err)
	}
	before := cl.K.Now()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Open(ctx, "/warm")
		if err != nil {
			return err
		}
		for off := int64(0); off < size; off += 2 << 20 {
			if _, n, err := m.Read(ctx, f, off, 2<<20); err != nil || n != 2<<20 {
				return fmt.Errorf("read at %d: n=%d err=%v", off, n, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Duration(cl.K.Now() - before)
	// 64 MB over a gigabit NIC is ≥ 0.54 s; disks at 45 MB/s would need
	// ≥ 1.4 s.  Warm reads must be network-bound, not disk-bound.
	if elapsed > 1200*time.Millisecond {
		t.Fatalf("warm read of 64 MB took %v; hitting disk despite warm cache", elapsed)
	}
	var diskReads uint64
	for _, d := range cl.Disks {
		_, _, _, misses, _, _ := d.Stats()
		diskReads += misses
	}
	if diskReads != 0 {
		t.Fatalf("%d disk cache misses on a warm read", diskReads)
	}
}

func TestNamespaceAcrossArchitectures(t *testing.T) {
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 1})
			_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				if err := m.Mkdir(ctx, "/dir"); err != nil {
					return fmt.Errorf("mkdir: %w", err)
				}
				for _, name := range []string{"a", "b", "c"} {
					f, err := m.Create(ctx, "/dir/"+name)
					if err != nil {
						return fmt.Errorf("create %s: %w", name, err)
					}
					if err := m.Write(ctx, f, 0, payload.Synthetic(1000)); err != nil {
						return err
					}
					if err := m.Close(ctx, f); err != nil {
						return err
					}
				}
				names, err := m.ReadDir(ctx, "/dir")
				if err != nil || len(names) != 3 {
					return fmt.Errorf("readdir: %v %v", names, err)
				}
				if err := m.Remove(ctx, "/dir/b"); err != nil {
					return fmt.Errorf("remove: %w", err)
				}
				names, _ = m.ReadDir(ctx, "/dir")
				if len(names) != 2 {
					return fmt.Errorf("after remove: %v", names)
				}
				f, err := m.Open(ctx, "/dir/a")
				if err != nil {
					return err
				}
				size, err := m.Stat(ctx, f)
				if err != nil || size != 1000 {
					return fmt.Errorf("stat: %d %v", size, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSingleFileDisjointRegions(t *testing.T) {
	// The IOR single-file mode: every client writes its own 4 MB region of
	// one file; all data must land correctly.
	for _, arch := range []Arch{ArchDirectPNFS, ArchPVFS2} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			const region = 4 << 20
			cl := New(Config{Arch: arch, Clients: 4})
			_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				var f *File
				var err error
				if i == 0 {
					f, err = m.Create(ctx, "/shared")
				} else {
					// Everyone else waits a beat for the create.
					ctx.Sleep(50 * time.Millisecond)
					f, err = m.Open(ctx, "/shared")
				}
				if err != nil {
					return err
				}
				if err := m.Write(ctx, f, int64(i)*region, payload.Synthetic(region)); err != nil {
					return err
				}
				return m.Close(ctx, f)
			})
			if err != nil {
				t.Fatal(err)
			}
			at, err := cl.PVFSMeta.Namespace().LookupPath("/shared")
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, s := range cl.Storage {
				total += s.ObjectSize(pvfsHandle(at.ID))
			}
			if total != 4*region {
				t.Fatalf("storage holds %d bytes, want %d", total, 4*region)
			}
		})
	}
}

func TestHundredMbpsSlowsTransfers(t *testing.T) {
	run := func(bps float64) time.Duration {
		cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, NetBPS: bps})
		d, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
			f, err := m.Create(ctx, "/f")
			if err != nil {
				return err
			}
			if err := m.Write(ctx, f, 0, payload.Synthetic(16<<20)); err != nil {
				return err
			}
			return m.Close(ctx, f)
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	gig := run(0)           // default gigabit
	fast := run(12_500_000) // 100 Mbps
	if fast < 3*gig {
		t.Fatalf("100 Mbps (%v) not much slower than gigabit (%v)", fast, gig)
	}
}

// pvfsHandle converts a vfs FileID to a pvfs.Handle for test assertions.
func pvfsHandle[T ~uint64](id T) pvfs.Handle { return pvfs.Handle(id) }

// TestCloseEndsSimProcesses builds, runs and closes several simulated
// clusters: Close must end every simulated process (server dispatch loops
// included), so the goroutine count returns to where it started.
func TestCloseEndsSimProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cl := New(Config{Arch: ArchDirectPNFS, Clients: 2})
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
			f, err := m.Create(ctx, fmt.Sprintf("/leak.%d", i))
			if err != nil {
				return err
			}
			if err := m.Write(ctx, f, 0, payload.Synthetic(1<<20)); err != nil {
				return err
			}
			return m.Close(ctx, f)
		}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// An exiting goroutine leaves the count a moment after handing control
	// back to the kernel; wait for the count, with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after closing 5 clusters", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
