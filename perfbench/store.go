package main

import (
	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
)

// timedStore wraps a server's store and times every call through the
// tracer (wall clock: store calls take no virtual time).  Root is a
// constant accessor and Stats a counter read, so neither is timed.
type timedStore struct {
	in store.Store
	t  *tracer
}

// timedFactory is the traced run's cluster.StoreFactory: the default mem
// backend, wrapped.
func timedFactory(t *tracer) cluster.StoreFactory {
	return func(string, *simdisk.Disk, *metrics.Registry) store.Store {
		return wrapStore(mem.New(), t)
	}
}

// wrapStore returns a timed view of in that implements exactly the
// optional interfaces in does, so the servers' type assertions take the
// same branches as on the unwrapped store.
func wrapStore(in store.Store, t *tracer) store.Store {
	s := &timedStore{in: in, t: t}
	rec, _ := in.(store.Recoverable)
	cor, _ := in.(store.Corruptible)
	tw, _ := in.(store.TornWriter)
	switch {
	case rec != nil && cor != nil && tw != nil:
		return struct {
			*timedStore
			store.Recoverable
			store.Corruptible
			store.TornWriter
		}{s, rec, cor, tw}
	case rec != nil && cor != nil:
		return struct {
			*timedStore
			store.Recoverable
			store.Corruptible
		}{s, rec, cor}
	case rec != nil && tw != nil:
		return struct {
			*timedStore
			store.Recoverable
			store.TornWriter
		}{s, rec, tw}
	case cor != nil && tw != nil:
		return struct {
			*timedStore
			store.Corruptible
			store.TornWriter
		}{s, cor, tw}
	case rec != nil:
		return struct {
			*timedStore
			store.Recoverable
		}{s, rec}
	case cor != nil:
		return struct {
			*timedStore
			store.Corruptible
		}{s, cor}
	case tw != nil:
		return struct {
			*timedStore
			store.TornWriter
		}{s, tw}
	}
	return s
}

func (s *timedStore) done(o op, start int64) { s.t.record(o, start, s.t.wall()) }

func (s *timedStore) Root() store.FileID { return s.in.Root() }

func (s *timedStore) Stats() int { return s.in.Stats() }

func (s *timedStore) Lookup(dir store.FileID, name string) (store.Attr, error) {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.Lookup(dir, name)
}

func (s *timedStore) LookupPath(p string) (store.Attr, error) {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.LookupPath(p)
}

func (s *timedStore) GetAttr(id store.FileID) (store.Attr, error) {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.GetAttr(id)
}

func (s *timedStore) Create(dir store.FileID, name string) (store.Attr, error) {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.Create(dir, name)
}

func (s *timedStore) Mkdir(dir store.FileID, name string) (store.Attr, error) {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.Mkdir(dir, name)
}

func (s *timedStore) Remove(dir store.FileID, name string) error {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.Remove(dir, name)
}

func (s *timedStore) Rename(srcDir store.FileID, srcName string, dstDir store.FileID, dstName string) error {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.Rename(srcDir, srcName, dstDir, dstName)
}

func (s *timedStore) ReadDir(dir store.FileID) ([]string, error) {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.ReadDir(dir)
}

func (s *timedStore) Truncate(id store.FileID, size int64) error {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.Truncate(id, size)
}

func (s *timedStore) SetSize(id store.FileID, size int64) error {
	defer s.done(opStoreMeta, s.t.wall())
	return s.in.SetSize(id, size)
}

func (s *timedStore) ReadAt(id store.FileID, off int64, b []byte) (int, error) {
	defer s.done(opStoreRead, s.t.wall())
	return s.in.ReadAt(id, off, b)
}

func (s *timedStore) WriteAt(id store.FileID, off int64, b []byte) (int64, error) {
	defer s.done(opStoreWrite, s.t.wall())
	s.t.stored.Add(int64(len(b)))
	return s.in.WriteAt(id, off, b)
}

func (s *timedStore) WriteSyntheticAt(id store.FileID, off, n int64) (int64, error) {
	defer s.done(opStoreWrite, s.t.wall())
	s.t.stored.Add(n)
	return s.in.WriteSyntheticAt(id, off, n)
}

func (s *timedStore) Sync(p *sim.Proc) error {
	defer s.done(opStoreSync, s.t.wall())
	return s.in.Sync(p)
}
