package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pagefile"
	"repro/uncertain"
)

// timedIndex wraps an uncertain.Index: it times every query and write,
// keeps the per-call stats the API returns, and, while a tracer is set,
// records one span per call. Everything else passes through unchanged.
type timedIndex struct {
	uncertain.Index
	rec atomic.Pointer[recorder]
	tr  atomic.Pointer[tracer]
}

// epocher is the optional capability that tells a commit from a grouped
// write: a commit advances the epoch.
type epocher interface{ Epoch() uint64 }

func (x *timedIndex) Search(ctx context.Context, rect uncertain.Rect, prob float64, opts ...uncertain.QueryOption) ([]uncertain.Result, uncertain.Stats, error) {
	end := x.tr.Load().startIndex(ctx, "Search")
	start := time.Now()
	res, st, err := x.Index.Search(ctx, rect, prob, opts...)
	d := time.Since(start)
	end()
	x.rec.Load().search(d, st, err)
	return res, st, err
}

func (x *timedIndex) NearestNeighbors(ctx context.Context, q uncertain.Point, k int, opts ...uncertain.QueryOption) ([]uncertain.Neighbor, uncertain.NNStats, error) {
	end := x.tr.Load().startIndex(ctx, "NearestNeighbors")
	start := time.Now()
	res, st, err := x.Index.NearestNeighbors(ctx, q, k, opts...)
	d := time.Since(start)
	end()
	x.rec.Load().nn(d, st, err)
	return res, st, err
}

// insert and delete are the timed write calls; they take the context that
// carries the caller's operation span.
func (x *timedIndex) insert(ctx context.Context, id int64, pdf uncertain.PDF, userBytes int) error {
	return x.write(ctx, "Insert", userBytes, func() error { return x.Index.Insert(id, pdf) })
}

func (x *timedIndex) delete(ctx context.Context, id int64) error {
	return x.write(ctx, "Delete", 0, func() error { return x.Index.Delete(id) })
}

func (x *timedIndex) write(ctx context.Context, name string, userBytes int, call func() error) error {
	ep, hasEpoch := x.Index.(epocher)
	var e0 uint64
	if hasEpoch {
		e0 = ep.Epoch()
	}
	end := x.tr.Load().startIndex(ctx, name)
	start := time.Now()
	err := call()
	d := time.Since(start)
	end()
	// Without an epoch to watch, every write is taken to commit: the
	// indexes that lack Epoch run with one commit per write.
	commit := !hasEpoch || ep.Epoch() != e0
	x.rec.Load().write(name == "Insert", d, commit, userBytes, err)
	return err
}

// ioPredictor is the optional capability QueryEngine probes for admission
// control; the engine must see it through the wrapper exactly when the
// wrapped index has it.
type ioPredictor interface {
	PredictSearchIO(rect uncertain.Rect, prob float64) (float64, bool)
}

type predictingIndex struct {
	*timedIndex
	pred ioPredictor
}

func (x predictingIndex) PredictSearchIO(rect uncertain.Rect, prob float64) (float64, bool) {
	return x.pred.PredictSearchIO(rect, prob)
}

// engineView returns the index to hand to NewQueryEngine.
func (x *timedIndex) engineView() uncertain.Index {
	if p, ok := x.Index.(ioPredictor); ok {
		return predictingIndex{x, p}
	}
	return x
}

// storeCounts are the base store's counters, summed over shards.
type storeCounts struct {
	reads, writes int64
	readNS        int64 // time in Read calls; counted only while traced
	writeNS       int64 // time in Write calls; counted only while traced
	pages         int64 // pages allocated now
}

// countingStore wraps a base page store (installed with Config.WrapStore)
// and counts its calls; while a tracer is set it also times them and
// records one span per call.
type countingStore struct {
	pagefile.Store
	tr                             *atomic.Pointer[tracer]
	reads, writes, readNS, writeNS atomic.Int64
}

func (s *countingStore) Read(id pagefile.PageID, buf []byte) error {
	s.reads.Add(1)
	t := s.tr.Load()
	if t == nil {
		return s.Store.Read(id, buf)
	}
	end := t.startStore("Read")
	start := time.Now()
	err := s.Store.Read(id, buf)
	s.readNS.Add(int64(time.Since(start)))
	end()
	return err
}

func (s *countingStore) Write(id pagefile.PageID, buf []byte) error {
	s.writes.Add(1)
	t := s.tr.Load()
	if t == nil {
		return s.Store.Write(id, buf)
	}
	end := t.startStore("Write")
	start := time.Now()
	err := s.Store.Write(id, buf)
	s.writeNS.Add(int64(time.Since(start)))
	end()
	return err
}

func (s *countingStore) Alloc() (pagefile.PageID, error) {
	if t := s.tr.Load(); t != nil {
		defer t.startStore("Alloc")()
	}
	return s.Store.Alloc()
}

func (s *countingStore) Free(id pagefile.PageID) error {
	if t := s.tr.Load(); t != nil {
		defer t.startStore("Free")()
	}
	return s.Store.Free(id)
}

// verifyingStore is countingStore for base stores that verify pages, so
// wrapping keeps the capability the scrubber and upper layers probe for.
type verifyingStore struct {
	*countingStore
	v pagefile.PageVerifier
}

func (s verifyingStore) VerifyPage(id pagefile.PageID) error { return s.v.VerifyPage(id) }

// storeSet collects the counting stores of one index (one per shard).
type storeSet struct {
	tr     atomic.Pointer[tracer]
	mu     sync.Mutex
	stores []*countingStore
}

// wrap is the Config.WrapStore hook.
func (ss *storeSet) wrap(base pagefile.Store) pagefile.Store {
	cs := &countingStore{Store: base, tr: &ss.tr}
	ss.mu.Lock()
	ss.stores = append(ss.stores, cs)
	ss.mu.Unlock()
	if v, ok := base.(pagefile.PageVerifier); ok {
		return verifyingStore{cs, v}
	}
	return cs
}

func (ss *storeSet) counts() storeCounts {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var c storeCounts
	for _, s := range ss.stores {
		c.reads += s.reads.Load()
		c.writes += s.writes.Load()
		c.readNS += s.readNS.Load()
		c.writeNS += s.writeNS.Load()
		c.pages += int64(s.NumPages())
	}
	return c
}
