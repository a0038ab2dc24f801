package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/uncertain"
)

// Answers sampled per round for the oracle.
const (
	checkRanges = 24
	checkNNs    = 8
)

// runner drives one workload over one index.
type runner struct {
	p      params
	in     inputs
	dir    string // this index's directory
	idx    *timedIndex
	eng    *uncertain.QueryEngine // nil unless p.Engine
	stores *storeSet
	setups []time.Duration

	// Write-stream state, owned by the single writer.
	live     map[int64]uncertain.PDF
	liveIDs  []int64
	nextID   int64
	inserted int
	writes   int
	wrng     *rand.Rand

	rangeSeq, nnSeq atomic.Int64

	ansMu   sync.Mutex
	answers []answer // sampled answers awaiting the oracle

	wrong    int      // answers that failed the oracle, or that it could not check
	wrongWhy []string // the first few reasons
	checked  int      // answers checked

	heapLive uint64 // live heap after the timed phases

	// Space, measured once after p.SpaceAfterWrites writes.
	space     int64
	spaceLive int
	spaceErr  error
}

// answer is one query's output kept for the oracle.
type answer struct {
	rq    *uncertain.RangeQuery
	rres  []uncertain.Result
	point uncertain.Point
	nres  []uncertain.Neighbor
}

// newRunner builds the index setups times — BulkLoad plus Flush, timed —
// and keeps the last build.
func newRunner(p params, in inputs, workDir string, seed int64) (*runner, error) {
	r := &runner{p: p, in: in, live: make(map[int64]uncertain.PDF, len(in.initial)), wrng: rand.New(rand.NewSource(seed + 104729))}
	for id, pdf := range in.initial {
		r.live[id] = pdf
		r.liveIDs = append(r.liveIDs, id)
		r.nextID = max(r.nextID, id+1)
	}
	sort.Slice(r.liveIDs, func(a, b int) bool { return r.liveIDs[a] < r.liveIDs[b] })
	for i := 0; i < setups; i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("index%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		stores := &storeSet{}
		idx, err := openIndex(p, in.dim, dir, stores.wrap)
		if err != nil {
			return nil, fmt.Errorf("open index: %w", err)
		}
		start := time.Now()
		err = idx.BulkLoad(in.initial)
		if err == nil {
			err = idx.Flush()
		}
		r.setups = append(r.setups, time.Since(start))
		if err != nil {
			return nil, errors.Join(fmt.Errorf("bulk load: %w", err), idx.Close())
		}
		if i < setups-1 {
			if err := idx.Close(); err != nil {
				return nil, fmt.Errorf("close setup index: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		r.dir, r.idx, r.stores = dir, &timedIndex{Index: idx}, stores
	}
	r.idx.rec.Store(&recorder{})
	if p.Engine {
		r.eng = uncertain.NewQueryEngine(r.idx.engineView(), uncertain.EngineOptions{Workers: runtime.NumCPU()})
	}
	return r, nil
}

// read makes one read call of the given kind: an NN call of NNBatch
// queries for "nn", a range call of RangeBatch queries otherwise.
func (r *runner) read(ctx context.Context, tr *tracer, kind string, keep bool) {
	if kind == "nn" {
		r.readNN(ctx, tr, r.in.nns, &r.nnSeq, keep)
		return
	}
	r.readRange(ctx, tr, r.in.ranges, &r.rangeSeq, keep)
}

// readRange makes one range call with the next RangeBatch queries of list,
// counted by seq.
func (r *runner) readRange(ctx context.Context, tr *tracer, list []uncertain.RangeQuery, seq *atomic.Int64, keep bool) {
	first := seq.Add(int64(r.p.RangeBatch)) - int64(r.p.RangeBatch)
	qs := make([]uncertain.RangeQuery, r.p.RangeBatch)
	for i := range qs {
		qs[i] = list[(first+int64(i))%int64(len(list))]
	}
	octx, done := tr.startOp(ctx, "range")
	var res [][]uncertain.Result
	var err error
	if r.eng != nil {
		res, _, err = r.eng.SearchBatch(octx, qs)
	} else {
		res = make([][]uncertain.Result, len(qs))
		for i := 0; i < len(qs) && err == nil; i++ {
			res[i], _, err = r.idx.Search(octx, qs[i].Rect, qs[i].Prob)
		}
	}
	done()
	// Failed calls are counted by the recorder; only clean answers are
	// kept for the oracle.
	if keep && err == nil && first < checkRanges {
		r.ansMu.Lock()
		for i := range qs {
			r.answers = append(r.answers, answer{rq: &qs[i], rres: res[i]})
		}
		r.ansMu.Unlock()
	}
}

// readNN makes one NN call with the next NNBatch points of list.
func (r *runner) readNN(ctx context.Context, tr *tracer, list []uncertain.Point, seq *atomic.Int64, keep bool) {
	first := seq.Add(int64(r.p.NNBatch)) - int64(r.p.NNBatch)
	qs := make([]uncertain.NNQuery, r.p.NNBatch)
	for i := range qs {
		qs[i] = uncertain.NNQuery{Point: list[(first+int64(i))%int64(len(list))], K: nnK}
	}
	octx, done := tr.startOp(ctx, "nn")
	var res [][]uncertain.Neighbor
	var err error
	if r.eng != nil {
		res, _, err = r.eng.NNBatch(octx, qs)
	} else {
		res = make([][]uncertain.Neighbor, len(qs))
		for i := 0; i < len(qs) && err == nil; i++ {
			res[i], _, err = r.idx.NearestNeighbors(octx, qs[i].Point, qs[i].K)
		}
	}
	done()
	if keep && err == nil && first < checkNNs {
		r.ansMu.Lock()
		for i := range qs {
			r.answers = append(r.answers, answer{point: qs[i].Point, nres: res[i]})
		}
		r.ansMu.Unlock()
	}
}

// writeOnce makes the stream's next write: even writes insert the next
// pool object under a fresh ID, odd writes delete a random live object.
func (r *runner) writeOnce(ctx context.Context, tr *tracer) {
	defer func() { r.writes++ }()
	if r.writes%2 == 0 || len(r.liveIDs) == 0 {
		k := r.inserted % len(r.in.pool)
		id, pdf := r.nextID, r.in.pool[k]
		r.nextID++
		octx, done := tr.startOp(ctx, "insert")
		err := r.idx.insert(octx, id, pdf, r.in.poolBytes[k])
		done()
		if err == nil {
			r.inserted++
			r.live[id] = pdf
			r.liveIDs = append(r.liveIDs, id)
		}
		return
	}
	i := r.wrng.Intn(len(r.liveIDs))
	id := r.liveIDs[i]
	octx, done := tr.startOp(ctx, "delete")
	err := r.idx.delete(octx, id)
	done()
	if err == nil {
		r.liveIDs[i] = r.liveIDs[len(r.liveIDs)-1]
		r.liveIDs = r.liveIDs[:len(r.liveIDs)-1]
		delete(r.live, id)
	}
}

// counters are the cumulative figures a phase takes deltas of.
type counters struct {
	at      time.Time
	mem     runtime.MemStats
	cpu     time.Duration
	gc      uncertain.GCInfo
	retries int64
	store   storeCounts
}

func (r *runner) counters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.gc = r.idx.GCInfo()
	c.retries = r.idx.Health().Retries
	c.store = r.stores.counts()
	c.at = time.Now()
	return c
}

// usage sums the counters' deltas over a phase's timed sections, leaving
// out the benchmark's own work between them: the oracle and the flush
// before the space measurement.
type usage struct {
	wall      time.Duration
	mem       memDelta
	cpu       time.Duration
	reclaimed int64
	retries   int64
	store     storeCounts
}

func (u *usage) add(c0, c1 counters) {
	u.wall += c1.at.Sub(c0.at)
	d := delta(c0.mem, c1.mem)
	u.mem.mallocs += d.mallocs
	u.mem.bytes += d.bytes
	u.mem.gcs += d.gcs
	u.mem.pauseNS += d.pauseNS
	u.cpu += c1.cpu - c0.cpu
	u.reclaimed += c1.gc.ReclaimedPages - c0.gc.ReclaimedPages
	u.retries += c1.retries - c0.retries
	u.store.reads += c1.store.reads - c0.store.reads
	u.store.writes += c1.store.writes - c0.store.writes
	u.store.readNS += c1.store.readNS - c0.store.readNS
	u.store.writeNS += c1.store.writeNS - c0.store.writeNS
}

// cacheCounts are the two caches' cumulative hits and misses.
type cacheCounts struct{ poolHits, poolMisses, nodeHits, nodeMisses int64 }

func (r *runner) caches() cacheCounts {
	var c cacheCounts
	c.poolHits, c.poolMisses = r.idx.CacheStats()
	c.nodeHits, c.nodeMisses = r.idx.NodeCacheStats()
	return c
}

func (c *cacheCounts) add(from, to cacheCounts) {
	c.poolHits += to.poolHits - from.poolHits
	c.poolMisses += to.poolMisses - from.poolMisses
	c.nodeHits += to.nodeHits - from.nodeHits
	c.nodeMisses += to.nodeMisses - from.nodeMisses
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	rec                 *recorder
	readWall, writeWall time.Duration
	use                 usage       // over the timed sections only
	readCaches          cacheCounts // over the read sections only
	pendingEnd          int         // pages awaiting reclaim at the phase's end
	self                map[string]time.Duration
	unattributed        float64 // share of store-span time that started with several index calls in flight
	fitUS               float64
	spansDropped        int
}

// phase runs the workload for dur in p.Rounds rounds. A round makes its
// share of the burst writes, then runs the read clients — and, for
// concurrent-writer workloads, the writer — in closed loops for its share
// of dur, then checks the round's sampled answers. Spreading the writes
// over the phase exposes both sides to the same conditions. A non-nil tr
// traces the phase.
func (r *runner) phase(ctx context.Context, dur time.Duration, burst int, tr *tracer) *phaseResult {
	res := &phaseResult{rec: &recorder{}}
	r.idx.rec.Store(res.rec)
	r.idx.tr.Store(tr)
	r.stores.tr.Store(tr)
	defer func() {
		r.idx.tr.Store(nil)
		r.stores.tr.Store(nil)
	}()
	insertedBefore := r.inserted
	rounds := max(1, r.p.Rounds)

	for round := 0; round < rounds; round++ {
		c0 := r.counters()
		lap := func() {
			c1 := r.counters()
			res.writeWall += c1.at.Sub(c0.at)
			res.use.add(c0, c1)
		}
		for i := round * burst / rounds; i < (round+1)*burst/rounds; i++ {
			r.writeOnce(ctx, tr)
			if r.spaceDue() {
				lap()
				r.untraced(r.takeSpace)
				c0 = r.counters()
			}
		}
		lap()

		c0, cache0 := r.counters(), r.caches()
		read, write := r.readRound(ctx, dur/time.Duration(rounds), tr)
		res.use.add(c0, r.counters())
		res.readCaches.add(cache0, r.caches())
		res.readWall += read
		res.writeWall += write
		r.untraced(func() { r.check(ctx) })
	}
	res.pendingEnd = r.idx.GCInfo().PendingPages
	if tr != nil {
		res.self, res.unattributed = tr.selfTimes()
		res.spansDropped = tr.dropped
	}
	res.fitUS = r.fitTime(insertedBefore, r.inserted)
	return res
}

// untraced runs f, the benchmark's own work between timed sections, with
// tracing off.
func (r *runner) untraced(f func()) {
	tr := r.idx.tr.Swap(nil)
	str := r.stores.tr.Swap(nil)
	f()
	r.idx.tr.Store(tr)
	r.stores.tr.Store(str)
}

// readRound runs the read clients, and the concurrent writer if any, in
// closed loops for dur. It returns how long the reads and the writes ran.
func (r *runner) readRound(ctx context.Context, dur time.Duration, tr *tracer) (read, write time.Duration) {
	r.ansMu.Lock()
	r.answers = r.answers[:0]
	r.ansMu.Unlock()
	r.rangeSeq.Store(0)
	r.nnSeq.Store(0)
	start := time.Now()
	deadline := start.Add(dur)
	keep := !r.p.ConcurrentWriter
	var wg sync.WaitGroup
	ends := make([]time.Time, len(r.p.ReadClients))
	for c, cycle := range r.p.ReadClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				r.read(ctx, tr, cycle[i%len(cycle)], keep)
			}
			ends[c] = time.Now()
		}()
	}
	if r.p.ConcurrentWriter {
		// The space measurement's flush is left out of the write time.
		// The readers run on meanwhile, so it stays in the phase's
		// counters: one flush among the stream's group commits.
		var paused time.Duration
		for time.Now().Before(deadline) {
			r.writeOnce(ctx, tr)
			if r.spaceDue() {
				t := time.Now()
				r.takeSpace()
				paused += time.Since(t)
			}
		}
		write = time.Since(start) - paused
	}
	wg.Wait()
	for _, e := range ends {
		read = max(read, e.Sub(start))
	}
	return read, write
}

// spaceDue reports whether the write stream has just made
// p.SpaceAfterWrites writes, the point at which every run measures space,
// so that all of them measure it after the same churn.
func (r *runner) spaceDue() bool {
	return r.writes == r.p.SpaceAfterWrites && r.spaceLive == 0 && r.spaceErr == nil
}

// takeSpace flushes the index and records its storage and live objects.
func (r *runner) takeSpace() {
	if err := r.idx.Flush(); err != nil {
		r.spaceErr = fmt.Errorf("flush: %w", err)
		return
	}
	r.space, r.spaceErr = r.spaceBytes()
	r.spaceLive = r.idx.Len()
}

// fitSample bounds the objects fitTime times.
const fitSample = 256

// fitTime is the mean time, in µs, of the PCR computation and both CFB
// fits (pcr.Compute, FitOut, FitIn) on the objects inserted by pool
// positions [from, to), the work an insert does before it descends.
func (r *runner) fitTime(from, to int) float64 {
	to = min(to, from+fitSample)
	if to <= from {
		return 0
	}
	cat := pcr.UniformCatalog(15)
	cache := pcr.NewQuantileCache()
	start := time.Now()
	for k := from; k < to; k++ {
		pcrs := pcr.Compute(r.in.pool[k%len(r.in.pool)], cat, cache)
		pcr.FitOut(pcrs)
		pcr.FitIn(pcrs)
	}
	return float64(time.Since(start).Microseconds()) / float64(to-from)
}

// liveHeap is the heap still live after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// check runs the oracle over the sampled answers. Concurrent-writer
// workloads keep none during the phase, so it first commits the writer's
// open group and queries the now quiet index with a fixed sample.
func (r *runner) check(ctx context.Context) {
	if r.p.ConcurrentWriter {
		if err := r.idx.Flush(); err != nil {
			r.noteOracle(answer{}, fmt.Errorf("flush before check: %w", err))
			return
		}
		saved := r.idx.rec.Load()
		r.idx.rec.Store(&recorder{})
		for i := 0; i < checkRanges; i++ {
			q := r.in.ranges[i%len(r.in.ranges)]
			res, _, err := r.idx.Search(ctx, q.Rect, q.Prob)
			r.noteOracle(answer{rq: &q, rres: res}, err)
		}
		for i := 0; i < checkNNs; i++ {
			pt := r.in.nns[i%len(r.in.nns)]
			res, _, err := r.idx.NearestNeighbors(ctx, pt, nnK)
			r.noteOracle(answer{point: pt, nres: res}, err)
		}
		r.idx.rec.Store(saved)
		return
	}
	r.ansMu.Lock()
	defer r.ansMu.Unlock()
	for _, a := range r.answers {
		r.noteOracle(a, nil)
	}
}

// maxReasons bounds the wrong-answer reasons kept for the report.
const maxReasons = 5

func (r *runner) noteOracle(a answer, queryErr error) {
	var why string
	var err error
	switch {
	case queryErr != nil:
		err = queryErr
	case a.rq != nil:
		why, err = checkRange(r.live, *a.rq, a.rres, r.mcSamples(), r.p.ExactRefinement)
	default:
		why = checkNN(r.live, nnK, a.nres)
	}
	r.checked++
	if err != nil {
		why = "oracle could not run: " + err.Error()
	}
	if why != "" {
		r.wrong++
		if len(r.wrongWhy) < maxReasons {
			r.wrongWhy = append(r.wrongWhy, why)
		}
	}
}

// mcSamples is the refinement sample count the index runs with.
func (r *runner) mcSamples() int {
	if r.p.MCSamples > 0 {
		return r.p.MCSamples
	}
	return 10000 // uncertain.Config.MonteCarloSamples default
}

// spaceBytes is the index's storage after Flush: the files' size when
// file-backed, the store's allocated pages otherwise.
func (r *runner) spaceBytes() (int64, error) {
	if !r.p.FileBacked {
		return r.stores.counts().pages * pagefile.PageSize, nil
	}
	var total int64
	err := filepath.WalkDir(r.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// close releases the index and removes its files.
func (r *runner) close() error {
	err := r.idx.Close()
	return errors.Join(err, os.RemoveAll(r.dir))
}
