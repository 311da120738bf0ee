package nfs

import (
	"bytes"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/slab"
)

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// dirtyPool seeds the transfer-buffer pool with poisoned buffers, so a
// slice that forgets to zero a hole reads 0xA5 instead of lucky zeros.
func dirtyPool(n int) {
	prev := rpc.SetPoisonOnPut(true)
	for i := 0; i < 4; i++ {
		rpc.PutBuf(rpc.GetBuf(n))
	}
	rpc.SetPoisonOnPut(prev)
}

// expect checks pc's content over [off, off+len(want)).
func expect(t *testing.T, pc *pageCache, off int64, want []byte) {
	t.Helper()
	dirtyPool(len(want))
	got := pc.slice(off, int64(len(want)))
	defer got.Release()
	if !bytes.Equal(got.Bytes, want) {
		for i := range want {
			if got.Bytes[i] != want[i] {
				t.Fatalf("byte %d: got %#x, want %#x", off+int64(i), got.Bytes[i], want[i])
			}
		}
	}
}

// TestPageCacheHolesReadZero: unwritten pages and bytes past the cached
// extent read as zeros, also from pooled (dirty) buffers.
func TestPageCacheHolesReadZero(t *testing.T) {
	pc := newPageCache(true)
	defer pc.release()
	data := pattern(10<<10, 1)
	const at = slab.Size + 5000 // second page, unaligned
	pc.write(at, payload.Real(data))
	want := make([]byte, 4*slab.Size)
	copy(want[at:], data)
	expect(t, pc, 0, want)
	expect(t, pc, 8*slab.Size+3, make([]byte, 7000)) // wholly past the cache
}

// TestPageCacheTruncateThenExtendReadsZero: bytes cut by truncate never
// resurface when the file grows again, within the boundary page or beyond.
func TestPageCacheTruncateThenExtendReadsZero(t *testing.T) {
	pc := newPageCache(true)
	defer pc.release()
	const n = 3*slab.Size + 100
	pc.write(0, payload.Real(pattern(n, 3)))
	const cut = slab.Size/2 + 7
	pc.truncate(cut)
	tail := pattern(1000, 9)
	pc.write(n-1000, payload.Real(tail)) // re-extend past the old pages
	mid := pattern(10, 11)
	pc.write(cut+100, payload.Real(mid)) // and inside the boundary page
	want := make([]byte, n)
	copy(want, pattern(n, 3)[:cut])
	copy(want[cut+100:], mid)
	copy(want[n-1000:], tail)
	expect(t, pc, 0, want)
	if ext := pc.missingResident(0, n); len(ext) == 0 || ext[0].Off != cut {
		t.Fatalf("truncate left residency %v, want a gap from %d", ext, cut)
	}
}

// TestPageCacheSnapshotSurvivesOverwrite: a write-back snapshot is a copy,
// so overwriting its range while the snapshot is in flight leaves the bytes
// being sent unchanged.
func TestPageCacheSnapshotSurvivesOverwrite(t *testing.T) {
	pc := newPageCache(true)
	defer pc.release()
	const n = 2*slab.Size + 10
	old := pattern(n, 5)
	pc.write(0, payload.Real(old))
	snap := pc.slice(0, n)
	defer snap.Release()
	pc.write(100, payload.Real(pattern(n-200, 77)))
	if !bytes.Equal(snap.Bytes, old) {
		t.Fatal("in-flight snapshot changed under an overwrite")
	}
	want := append([]byte(nil), old...)
	copy(want[100:], pattern(n-200, 77))
	expect(t, pc, 0, want)
}

// TestPageCacheTruncateEdges: truncate never indexes past the page array —
// on a cache with no pages (synthetic, or real but never filled), and to a
// size beyond the last cached page — and still zeroes every cut byte.
func TestPageCacheTruncateEdges(t *testing.T) {
	syn := newPageCache(false)
	defer syn.release()
	syn.write(0, payload.Synthetic(1000))
	syn.truncate(10)
	syn.truncate(3*slab.Size + 5)
	if ext := syn.missingResident(0, 1000); len(ext) != 1 || ext[0].Off != 10 {
		t.Fatalf("synthetic truncate left residency gaps %v, want one from 10", ext)
	}

	empty := newPageCache(true)
	defer empty.release()
	empty.truncate(10)
	empty.truncate(slab.Size + 10)
	expect(t, empty, 0, make([]byte, slab.Size+10))

	// Grow past the cached pages, then shrink to a boundary page that was
	// never materialized.
	grow := newPageCache(true)
	defer grow.release()
	data := pattern(1000, 4)
	grow.write(0, payload.Real(data))
	grow.truncate(100000)
	want := make([]byte, 100000)
	copy(want, data)
	expect(t, grow, 0, want)
	grow.truncate(2*slab.Size + 1)
	expect(t, grow, 0, want[:1000])
}

// TestPageCacheTruncateCases replays store/mem's truncate cases against the
// page array: shrink then re-extend inside one page, and a cut inside a
// hole between materialized pages.
func TestPageCacheTruncateCases(t *testing.T) {
	pc := newPageCache(true)
	defer pc.release()
	pc.write(0, payload.Real([]byte("abcdef")))
	pc.truncate(3)
	pc.truncate(6) // extend again: the tail must be zeros, not "def"
	expect(t, pc, 0, []byte("abc\x00\x00\x00"))

	holey := newPageCache(true)
	defer holey.release()
	head, tail := pattern(2*slab.Size, 6), pattern(slab.Size, 8)
	holey.write(0, payload.Real(head))
	holey.write(4*slab.Size, payload.Real(tail))
	holey.truncate(4*slab.Size + 100)
	want := make([]byte, 5*slab.Size)
	copy(want, head)
	copy(want[4*slab.Size:], tail[:100])
	expect(t, holey, 0, want)
}

// TestPageCacheLastReleaseRecyclesSlabs: pages go back to the shared slab
// free-list on the last release, not before.
func TestPageCacheLastReleaseRecyclesSlabs(t *testing.T) {
	pc := newPageCache(true)
	// A second open of the same inode, then four pages of content.
	pc.retain()
	pc.write(0, payload.Real(pattern(3*slab.Size+1, 2)))
	held := make(map[*byte]bool)
	for _, p := range pc.pages {
		if p != nil {
			held[&p[0]] = true
		}
	}
	if len(held) != 4 {
		t.Fatalf("cache holds %d pages, want 4", len(held))
	}
	pc.release()
	if len(pc.pages) != 4 {
		t.Fatalf("first release dropped pages while a reference remains")
	}
	pc.release()
	if pc.pages != nil {
		t.Fatal("last release kept the page array")
	}
	// The free-list is LIFO: the next four slabs handed out are the ones
	// the cache just returned.
	for i := 0; i < 4; i++ {
		s := slab.Get(false)
		if !held[&s[0]] {
			t.Fatalf("slab %d from the free-list is not one the cache returned", i)
		}
		defer slab.Put(s)
	}
}
