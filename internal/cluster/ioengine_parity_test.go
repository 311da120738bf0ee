package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// driveEngineWorkload writes a deterministic pattern through a Real
// simulated cluster with the given engine knobs and reads it back cold.
// Mixed request sizes cross stripe-unit boundaries (multi-extent fan-out),
// the tiny MaxTransfer forces request splitting, and small sequential
// re-reads make adjacent missing chunks coalesce — every engine feature is
// on the data path.
func driveEngineWorkload(t *testing.T, arch Arch, wave bool, window int) [][]byte {
	t.Helper()
	const (
		clients  = 2
		stripe   = 64 << 10
		fileSize = 300<<10 + 17
		rchunk   = 8 << 10
	)
	wchunks := []int64{50_000, 512, 130_000, 8 << 10}
	cl := New(Config{
		Arch:       arch,
		Clients:    clients,
		Backends:   4,
		StripeSize: stripe,
		WSize:      stripe,
		RSize:      stripe,
		// MaxTransfer is misaligned: it splits nearly every extent.
		Tuning: ioengine.Tuning{MaxFlight: window, MaxTransfer: 20_000, Wave: wave},
		Real:   true,
	})
	defer cl.Close()

	path := func(i int) string { return fmt.Sprintf("/f%d", i) }
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, path(i))
		if err != nil {
			return err
		}
		for off, k := int64(0), 0; off < fileSize; k++ {
			n := wchunks[k%len(wchunks)]
			if off+n > fileSize {
				n = fileSize - off
			}
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = parityPattern(i, off+int64(j))
			}
			if err := m.Write(ctx, f, off, payload.Real(buf)); err != nil {
				return err
			}
			off += n
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("%s wave=%v write phase: %v", arch, wave, err)
	}

	out := make([][]byte, clients)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		m.DropCaches()
		f, err := m.Open(ctx, path(i))
		if err != nil {
			return err
		}
		got := make([]byte, 0, fileSize)
		for off := int64(0); off < fileSize; off += rchunk {
			data, n, err := m.Read(ctx, f, off, rchunk)
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("unexpected EOF at %d", off)
			}
			if data.Bytes == nil {
				return fmt.Errorf("synthetic payload at %d on a Real mount", off)
			}
			got = append(got, data.Bytes...)
		}
		out[i] = got
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("%s wave=%v read phase: %v", arch, wave, err)
	}
	return out
}

// TestIOEngineParityAllArchitectures is the refactor's correctness pin
// (ISSUE 4): on all five architectures, data routed through the I/O
// engine's sliding window — with coalescing and MaxTransfer splitting
// engaged — reads back byte-identical to the written pattern, and the wave
// schedule (the pre-engine dispatch) produces exactly the same bytes.
func TestIOEngineParityAllArchitectures(t *testing.T) {
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			window := driveEngineWorkload(t, arch, false, 3)
			wave := driveEngineWorkload(t, arch, true, 3)
			for i := range window {
				for off, b := range window[i] {
					if want := parityPattern(i, int64(off)); b != want {
						t.Fatalf("client %d: byte %d = %#x, want %#x", i, off, b, want)
					}
				}
				if !bytes.Equal(window[i], wave[i]) {
					t.Fatalf("client %d: wave-mode read-back differs from sliding window (lens %d vs %d)",
						i, len(wave[i]), len(window[i]))
				}
			}
		})
	}
}
