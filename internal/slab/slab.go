// Package slab is the process-wide free-list of fixed-size 64 KiB byte
// slabs that sparse in-memory file contents are built from: the server-side
// store/mem backend and the client page cache (internal/nfs) both allocate
// their pages here and hand them back when content is truncated away or a
// whole cache is dropped.  Client page caches are dropped and rebuilt
// wholesale (DropCaches, close-to-open revalidation); without the free-list
// every rebuild allocates its working set slab by slab.
//
// A plain guarded slice, not a sync.Pool: Put(&s) would box the slice
// header and cost the very allocation the pool is here to save.  maxFree
// bounds retention (64 MiB); overflow falls to the garbage collector.
package slab

import "sync"

// Size is the length of every slab.
const Size = 64 << 10

const maxFree = 1024

var free struct {
	sync.Mutex
	slabs [][]byte
}

// Get returns a slab of length Size, zeroed unless the caller is about to
// overwrite all of it (recycled slabs come back holding old bytes, and
// holes must read as zeros).
func Get(zero bool) []byte {
	free.Lock()
	var s []byte
	if n := len(free.slabs); n > 0 {
		s = free.slabs[n-1]
		free.slabs[n-1] = nil
		free.slabs = free.slabs[:n-1]
	}
	free.Unlock()
	if s == nil {
		return make([]byte, Size)
	}
	if zero {
		clear(s)
	}
	return s
}

// Put recycles a slab obtained from Get.  The caller must not touch s
// afterwards.
func Put(s []byte) {
	free.Lock()
	if len(free.slabs) < maxFree {
		free.slabs = append(free.slabs, s)
	}
	free.Unlock()
}
