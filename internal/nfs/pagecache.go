package nfs

import (
	"sync"
	"sync/atomic"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/slab"
)

// pageCache is the client-side cache for one open file: byte-granular
// residency and dirtiness, with real content kept in a sparse page array
// when the mount operates on real bytes (integration tests and the TCP
// bulk path).  Figure benchmarks run synthetic, where only the extents
// matter.
//
// The pages are plain client memory: 64 KiB slabs from the shared slab
// free-list, indexed by offset/slab.Size, with nil entries as holes that
// read as zeros.  They carry no checksums — block checksums protect data
// at rest in the store backends (docs/BACKENDS.md "Block checksums"), and
// no fault event can reach client RAM — so every cached byte is copied in
// once (write, fill) and copied out once (slice).
//
// There is no eviction: the paper's working sets fit client RAM (≤ 650 MB
// per client against 2 GB), and synthetic mode stores no bytes anyway.
// The extent lists and the pages are guarded by mu: parallel striped
// fetches and flushes run as concurrent goroutines in real-time (TCP)
// mode.  Under simulation the cooperative scheduler makes the locking moot
// but harmless.
type pageCache struct {
	mu       sync.Mutex
	resident extList
	dirty    extList
	real     bool
	pages    [][]byte // pages[i] holds [i*slab.Size, (i+1)*slab.Size); nil is a hole
	// refs counts who can still read the cache: the client's inode cache
	// holds one reference and every open File sharing the cache holds one.
	// The last release returns the pages to the slab free-list, so
	// DropCaches recycles a whole working set instead of leaving it to GC.
	refs atomic.Int32
}

func newPageCache(real bool) *pageCache {
	pc := &pageCache{real: real}
	pc.refs.Store(1)
	return pc
}

// retain adds a reference (an additional File opening the same inode).
func (pc *pageCache) retain() { pc.refs.Add(1) }

// release drops a reference; the last one returns every page to the slab
// free-list.  Callers must not touch the cache after their final release.
func (pc *pageCache) release() {
	if n := pc.refs.Add(-1); n == 0 {
		pc.mu.Lock()
		for _, p := range pc.pages {
			if p != nil {
				slab.Put(p)
			}
		}
		pc.pages = nil
		pc.mu.Unlock()
	} else if n < 0 {
		panic("nfs: pageCache over-released")
	}
}

// write installs data at off as resident and dirty.
func (pc *pageCache) write(off int64, data payload.Payload) {
	end := off + data.Len()
	pc.mu.Lock()
	pc.copyIn(off, data.Bytes)
	pc.resident = pc.resident.insert(off, end)
	pc.dirty = pc.dirty.insert(off, end)
	pc.mu.Unlock()
}

// fill installs fetched data at off as resident (clean).
func (pc *pageCache) fill(off int64, data payload.Payload) {
	pc.mu.Lock()
	pc.copyIn(off, data.Bytes)
	pc.resident = pc.resident.insert(off, off+data.Len())
	pc.mu.Unlock()
}

// copyIn stores real bytes at off, materializing pages on demand; a
// synthetic payload (nil b) or a synthetic-mode cache stores nothing.
// Callers hold mu.
func (pc *pageCache) copyIn(off int64, b []byte) {
	if !pc.real || len(b) == 0 {
		return
	}
	if last := int((off + int64(len(b)) - 1) / slab.Size); last >= len(pc.pages) {
		pc.pages = append(pc.pages, make([][]byte, last+1-len(pc.pages))...)
	}
	for len(b) > 0 {
		i, po := off/slab.Size, off%slab.Size
		p := pc.pages[i]
		if p == nil {
			// A page the write covers whole needs no zeroing.
			p = slab.Get(po != 0 || int64(len(b)) < slab.Size)
			pc.pages[i] = p
		}
		n := copy(p[po:], b)
		b = b[n:]
		off += int64(n)
	}
}

// missingResident returns the gaps of [lo, hi) not yet resident.
func (pc *pageCache) missingResident(lo, hi int64) []extent {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.resident.missing(lo, hi)
}

// truncate drops cached state at and beyond size: pages wholly past it
// return to the slab free-list and the tail of the page holding size is
// zeroed, so a later re-extension reads zeros there, never stale bytes.
func (pc *pageCache) truncate(size int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.resident = pc.resident.subtract(size, 1<<62)
	pc.dirty = pc.dirty.subtract(size, 1<<62)
	keep := int((size + slab.Size - 1) / slab.Size) // pages holding bytes below size
	if keep < len(pc.pages) {
		for i, p := range pc.pages[keep:] {
			if p != nil {
				slab.Put(p)
				pc.pages[keep+i] = nil
			}
		}
		pc.pages = pc.pages[:keep]
	}
	// The boundary page may lie past the page array: a synthetic cache has
	// none, and a growing truncate or a cache never filled there has no
	// page at keep-1 to zero.
	if po := size % slab.Size; po != 0 && keep > 0 && keep <= len(pc.pages) && pc.pages[keep-1] != nil {
		clear(pc.pages[keep-1][po:])
	}
}

// firstDirty returns the lowest dirty extent.
func (pc *pageCache) firstDirty() (extent, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.dirty.first()
}

// slice returns the cached content of [off, off+n) — the caller must have
// established residency.  Synthetic mode returns a synthetic payload.
// Real-mode slices are a copy in a pooled buffer, so the snapshot is
// immune to later writes: the consumer (a flush's RPC path, or the
// application reading through Mount.Read) releases the payload when done;
// unreleased payloads just fall to the GC.  Holes read as zeros.
func (pc *pageCache) slice(off, n int64) payload.Payload {
	if !pc.real {
		return payload.Synthetic(n)
	}
	buf := rpc.GetBuf(int(n))
	pc.mu.Lock()
	for b := buf; len(b) > 0; {
		i, po := off/slab.Size, off%slab.Size
		k := min(int(slab.Size-po), len(b))
		if i < int64(len(pc.pages)) && pc.pages[i] != nil {
			copy(b[:k], pc.pages[i][po:])
		} else {
			clear(b[:k]) // pooled buffers come back dirty
		}
		b = b[k:]
		off += int64(k)
	}
	pc.mu.Unlock()
	return payload.RealPooled(buf, func() { rpc.PutBuf(buf) })
}

// clean marks [off, end) as flushed.
func (pc *pageCache) clean(off, end int64) {
	pc.mu.Lock()
	pc.dirty = pc.dirty.subtract(off, end)
	pc.mu.Unlock()
}

// dirtyRunAtLeast returns the lowest dirty extent of at least n bytes.
func (pc *pageCache) dirtyRunAtLeast(n int64) (extent, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, e := range pc.dirty {
		if e.len() >= n {
			return e, true
		}
	}
	return extent{}, false
}
