// Package uncertain is the public API of the U-tree library: indexing
// multi-dimensional uncertain data with arbitrary probability density
// functions, after Tao, Cheng, Xiao, Ngai, Kao and Prabhakar (VLDB 2005).
//
// An uncertain object is a point whose position is described by a pdf over
// an uncertainty region. The U-tree answers probabilistic range queries —
// "find the objects inside rectangle r with probability at least p" —
// while avoiding expensive appearance-probability integration for almost
// all objects, using pre-computed probabilistically constrained regions
// compressed into linear conservative functional boxes.
//
// Quick start:
//
//	tree, _ := uncertain.NewTree(uncertain.Config{Dimensions: 2})
//	tree.Insert(1, uncertain.UniformCircle(uncertain.Pt(300, 400), 25))
//	results, _, _ := tree.Search(context.Background(),
//		uncertain.Box(uncertain.Pt(250, 350), uncertain.Pt(350, 450)), 0.8)
//
// Queries take a context (cancellation, deadlines) and per-query options
// (WithMonteCarloSamples, WithLimit, WithPageBudget, ...); see the
// QueryOption docs and examples/ for complete programs.
package uncertain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/updf"
)

// Point is a position in d-dimensional space.
type Point = geom.Point

// Rect is an axis-aligned hyper-rectangle.
type Rect = geom.Rect

// PDF is a probability density function over an uncertainty region. Build
// one with the constructors below, or implement updf.PDF directly for fully
// custom distributions.
type PDF = updf.PDF

// Result is one object qualifying a probabilistic range query. When the
// index validated the object directly from its PCRs — the paper's headline
// saving — no appearance probability was ever computed: Validated is true
// and Prob is -1 ("validated without probability computation"). Prob holds
// the computed probability only for objects that went through refinement.
type Result = core.Result

// Stats reports the cost of one query in the paper's metrics: node
// accesses, appearance-probability computations, directly-validated counts
// and refinement I/Os.
type Stats = core.QueryStats

// Pt builds a Point.
func Pt(coords ...float64) Point { return Point(coords) }

// Box builds a rectangle from its corners; it panics on malformed corners.
func Box(lo, hi Point) Rect { return geom.NewRect(lo, hi) }

// UniformCircle is a uniform pdf over a d-dimensional ball (circle, sphere)
// — the paper's location-uncertainty model.
func UniformCircle(center Point, radius float64) PDF {
	return updf.NewUniformBall(center, radius)
}

// UniformBox is a uniform pdf over a rectangle.
func UniformBox(region Rect) PDF { return updf.NewUniformRect(region) }

// ConstrainedGaussian is the paper's Con-Gau (Equation 16): an isotropic
// Gaussian centered on the ball, renormalized over it.
func ConstrainedGaussian(center Point, radius, sigma float64) PDF {
	return updf.NewConGauBall(center, radius, sigma)
}

// TruncatedGaussianBox is an independent-Gaussian product truncated to a
// rectangle (closed-form marginals and probabilities).
func TruncatedGaussianBox(region Rect, mean Point, sigma []float64) PDF {
	return updf.NewGaussRect(region, mean, sigma)
}

// ExponentialBox is a truncated exponential product on a rectangle — a
// heavily skewed (Zipf-like) model.
func ExponentialBox(region Rect, rates []float64) PDF {
	return updf.NewExpoRect(region, rates)
}

// Histogram is a piecewise-constant pdf on a grid over a rectangle: the
// "arbitrary pdf" workhorse — any density can be approximated this way.
// weights are row-major cell masses (normalized internally).
func Histogram(region Rect, bins []int, weights []float64) PDF {
	return updf.NewHistogramRect(region, bins, weights)
}

// Config parameterizes a Tree.
type Config struct {
	// Dimensions of the data space (required).
	Dimensions int
	// UPCR selects the paper's comparison structure instead of the U-tree
	// (bigger entries storing all catalog PCRs). Mostly for experiments.
	UPCR bool
	// CatalogSize m (0 → paper defaults: 15 for U-tree, 9 for U-PCR).
	CatalogSize int
	// MonteCarloSamples is n1 of the refinement estimator (0 → 10000; the
	// paper uses 10^6 for <1% error).
	MonteCarloSamples int
	// ExactRefinement uses closed-form/quadrature probabilities instead of
	// Monte Carlo when the pdf supports it.
	ExactRefinement bool
	// Path makes the index file-backed (empty → in-memory).
	Path string
	// Seed for the refinement sampler (0 → 1).
	Seed int64
	// BufferPages sizes the page cache (0 → 256).
	BufferPages int
	// NodeCacheEntries sizes the decoded-node cache sitting above the page
	// cache: committed tree pages are immutable under the copy-on-write
	// epoch protocol, so their decoded in-memory nodes are shared across
	// queries (and across lock-free snapshot readers) until the page is
	// physically reclaimed. A hit skips the page fetch and the node decode
	// entirely — the query hot path runs allocation-free. 0 → 1024 entries;
	// negative disables the cache.
	NodeCacheEntries int
	// SimulatedPageLatency adds a fixed delay to every physical page read
	// and write, modeling disk- or network-resident storage (the paper's
	// cost model charges 10 ms per page access). Cache hits skip it, so it
	// makes buffer-pool effectiveness and batch-query parallelism
	// measurable on fast hardware. Zero (the default) disables it.
	SimulatedPageLatency time.Duration
	// PrefetchWorkers bounds the async page fetches a single query may
	// have in flight: queries overlap the independent page reads a
	// traversal already knows it needs (a level's surviving children, the
	// refinement data pages, the pages behind the next NN heap entries).
	// On latency-bound storage this pipelines one query's I/O stalls the
	// way the batch engine overlaps stalls across queries. 0 (the default)
	// disables intra-query prefetching. Results are byte-identical either
	// way; use WithPrefetchWorkers to override per query.
	PrefetchWorkers int
	// WrapStore, when set, wraps the base page store (file or memory)
	// before the latency and versioning layers — the fault-injection and
	// instrumentation hook (e.g. pagefile.FaultStore for crash-recovery
	// tests). Production code leaves it nil.
	WrapStore func(pagefile.Store) pagefile.Store
	// GroupCommitOps > 1 enables size-based group commit: mutations
	// accumulate in one open commit epoch and publish together once this
	// many have gathered (or earlier — at Flush, Close, an explicit
	// WriteBatch, or the GroupCommitInterval deadline). Grouping amortizes
	// the per-epoch cost (metadata write, pool flush, shadow relocations of
	// the root path) across the group; the trade-off is durability
	// granularity: a crash loses the uncommitted tail of the open group,
	// never a committed prefix. 0 or 1 keeps one-epoch-per-op auto-commit.
	GroupCommitOps int
	// GroupCommitInterval > 0 bounds how long an open group may age before
	// it commits: a timer goroutine seals the group within about 1.25
	// intervals of its first mutation. Usable with or without
	// GroupCommitOps.
	GroupCommitInterval time.Duration
	// ReclaimInterval > 0 starts the background epoch reclaimer: retired
	// pages and data-record tombstones drain on a dedicated goroutine's
	// ticks instead of inline at commit — the commit path stops paying for
	// garbage, and garbage drains even while the writer idles.
	ReclaimInterval time.Duration
	// ReclaimPageBudget bounds the page operations (tombstone
	// read-modify-writes + page frees) one reclaimer tick may perform
	// (0 → pagefile.DefaultReclaimBudget). Ignored without ReclaimInterval.
	ReclaimPageBudget int
	// RetryAttempts bounds the storage stack's transient-fault retry loop:
	// the total attempts per page operation, including the first. 0 selects
	// the default (3); negative disables retrying entirely. Retries are
	// per-operation storage events, not logical I/O — a read that needed
	// three attempts is still one buffer-pool miss and one page-budget
	// charge. The traffic is observable in query Stats.Retries and
	// Health().Retries.
	RetryAttempts int
	// RetryBaseDelay / RetryMaxDelay shape the jittered exponential backoff
	// between retry attempts (0 → 100µs base, 10ms cap).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// ScrubInterval > 0 starts the background page scrubber: a goroutine
	// periodically walks the committed tree verifying page checksums (up to
	// ScrubPageBudget pages per tick), quarantining latent corruption
	// before any query trips over it. Progress appears in Health().
	ScrubInterval time.Duration
	// ScrubPageBudget bounds the verifications one scrub tick performs
	// (0 → core default). Ignored without ScrubInterval.
	ScrubPageBudget int
	// AdaptivePlanning enables the cost-model-driven query planner: the
	// index keeps an analytical cost model of its committed shape, predicts
	// each query's node accesses before descent, and picks the prefetch
	// fan-out and speculation budget from the prediction (serial when
	// cheap, deep pipeline when expensive). Measured accesses feed back
	// into the model on a sliding window. On a sharded index it also
	// enables root-MBR shard pruning and cost-ranked NN scatter-gather.
	// Explicit per-query options always override the planner's choices;
	// results are byte-identical with planning on or off. See PlannerInfo.
	AdaptivePlanning bool
	// ProbFilter enables the probabilistic candidate filter: candidates
	// whose qualification-probability upper bound (computed from their PCR
	// slabs) falls below the query threshold are discarded before
	// refinement. Only provably non-qualifying candidates drop, so the
	// result set is unchanged; under Monte-Carlo refinement the sampler
	// stream shifts, so bit-exact reproducibility against a filter-off run
	// is guaranteed only with ExactRefinement. Override per query with
	// WithProbFilter.
	ProbFilter bool
}

// Tree is a dynamic index over uncertain objects supporting probabilistic
// range search, safe for concurrent use with snapshot isolation: every
// query pins the latest committed epoch and traverses it with no lock
// held, while mutations — serialized among themselves by a writer mutex —
// build copy-on-write shadow pages and atomically publish a new epoch on
// commit. A long-running query therefore never blocks a writer and a slow
// writer never stalls a read; a query sees exactly the epoch that was
// committed when it started (queries started before a delete still return
// the deleted object; queries started after do not, and under group commit
// an open group's mutations stay invisible until it commits). Retired
// pages are reclaimed by the epoch GC once no snapshot pins them.
type Tree struct {
	mu      sync.Mutex // serializes writers; the read path takes no lock
	inner   *core.Tree
	file    *pagefile.FileStore
	meta    pagefile.PageID
	latency *pagefile.LatencyStore // always interposed by NewTree/OpenTree
	retry   *pagefile.RetryStore   // nil when Config.RetryAttempts < 0
	pdfs    map[int64]flatMBR      // id → region MBR, to make Delete(id) ergonomic
	closed  bool                   // set by Close/Discard; makes both idempotent
	// pdfDeletes counts pdfs deletions since the map was last rebuilt (see
	// compactPDFs).
	pdfDeletes int

	// Group-commit state (see Config.GroupCommitOps and batch.go). undo
	// records the pdfs-map mutations of the open group so a rollback can
	// revert the session's Delete(id) bookkeeping along with the index.
	gcOps      int
	gcInterval time.Duration
	groupOps   int       // mutations in the open group
	groupStart time.Time // first mutation of the open group
	inBatch    bool      // explicit WriteBatch in progress
	undo       []pdfUndo
	// batchG is the ID of the goroutine running WriteBatch's fn (0 when
	// none), so that fn's own calls into the tree skip the writer mutex.
	batchG atomic.Uint64

	// Group-commit deadline timer (Config.GroupCommitInterval > 0): seals
	// an open group once it ages past the interval, whether or not the
	// writer is still active. tickErr stashes a timer-side commit failure,
	// surfaced at the next Flush or Close.
	tickStop chan struct{}
	tickDone chan struct{}
	tickErr  error // under mu
}

// NewTree creates an empty index.
func NewTree(cfg Config) (*Tree, error) {
	opt := core.Options{
		Dim:              cfg.Dimensions,
		CatalogSize:      cfg.CatalogSize,
		MCSamples:        cfg.MonteCarloSamples,
		ExactRefinement:  cfg.ExactRefinement,
		Seed:             cfg.Seed,
		BufferPages:      cfg.BufferPages,
		NodeCacheEntries: cfg.NodeCacheEntries,
		PrefetchWorkers:  cfg.PrefetchWorkers,
		ReclaimInterval:  cfg.ReclaimInterval,
		ReclaimBudget:    cfg.ReclaimPageBudget,
		ScrubInterval:    cfg.ScrubInterval,
		ScrubBudget:      cfg.ScrubPageBudget,
		AdaptivePlanning: cfg.AdaptivePlanning,
		ProbFilter:       cfg.ProbFilter,
	}
	if cfg.UPCR {
		opt.Kind = core.UPCR
	}
	t := &Tree{pdfs: make(map[int64]flatMBR), gcOps: cfg.GroupCommitOps, gcInterval: cfg.GroupCommitInterval}
	if cfg.Path != "" {
		fs, err := pagefile.CreateFileStore(cfg.Path)
		if err != nil {
			return nil, err
		}
		t.file = fs
		opt.Store = fs
		// Reserve the metadata page before the tree allocates its root so
		// OpenTree can always find it at page 1.
		meta, err := fs.Alloc()
		if err != nil {
			fs.Close()
			return nil, err
		}
		t.meta = meta
	}
	// Always interpose the latency store (zero delay is a no-sleep fast
	// path) so SetSimulatedPageLatency can arm or disarm at any time — a
	// conditional wrap would make later calls silent no-ops.
	base := opt.Store
	if base == nil {
		base = pagefile.NewMemStore()
	}
	if cfg.WrapStore != nil {
		base = cfg.WrapStore(base)
	}
	t.latency = pagefile.NewLatencyStore(base, cfg.SimulatedPageLatency, cfg.SimulatedPageLatency)
	opt.Store = t.buildRetry(cfg)
	inner, err := core.New(opt)
	if err != nil {
		if t.file != nil {
			t.file.Close()
		}
		return nil, err
	}
	t.inner = inner
	// Make the empty tree the first durable epoch: for file-backed trees
	// the metadata page now points at a committed root, so even a process
	// that dies before its first mutation leaves a reopenable file.
	if err := t.commit(); err != nil {
		t.Discard()
		return nil, err
	}
	t.startGroupTimer()
	return t, nil
}

// NewConcurrentTree creates an index; Tree itself is safe for concurrent
// use.
//
// Deprecated: use NewTree.
func NewConcurrentTree(cfg Config) (*Tree, error) { return NewTree(cfg) }

// buildRetry tops the store stack with the transient-fault retry layer —
// above the simulated-latency store (each retry attempt is a fresh I/O and
// pays the modeled latency again) and below the versioning and buffer-pool
// layers (a retried read stays one pool miss and one page-budget charge).
// Enabled by default; Config.RetryAttempts < 0 disables it.
func (t *Tree) buildRetry(cfg Config) pagefile.Store {
	if cfg.RetryAttempts < 0 {
		return t.latency
	}
	t.retry = pagefile.NewRetryStore(t.latency, pagefile.RetryPolicy{
		MaxAttempts: cfg.RetryAttempts,
		BaseDelay:   cfg.RetryBaseDelay,
		MaxDelay:    cfg.RetryMaxDelay,
		Seed:        cfg.Seed,
	})
	return t.retry
}

// commit seals the open mutations as a new epoch — through the metadata
// page for file-backed trees (the crash-consistency point), directly for
// in-memory ones. With grouping disabled every mutating method
// auto-commits, so each completed Insert/Delete/BulkLoad is an epoch of
// its own; with group commit (Config.GroupCommitOps/Interval, WriteBatch)
// the whole group publishes as one epoch and snapshots see completed
// groups, never a partial one.
func (t *Tree) commit() error {
	if t.inner.InBatch() {
		if t.file != nil {
			return t.inner.CommitBatchWithMeta(t.meta)
		}
		return t.inner.CommitBatch()
	}
	if t.file != nil {
		return t.inner.CommitWithMeta(t.meta)
	}
	return t.inner.Commit()
}

// rollback rewinds every uncommitted mutation — the failing one and any
// grouped ones before it — to the last committed epoch, reverting the
// session's pdfs bookkeeping with them. The mutation's error wins over any
// rollback error; when grouped ops were dropped with it, the error says so.
func (t *Tree) rollback(opErr error) error {
	dropped := t.groupOps
	var rbErr error
	if t.inner.InBatch() {
		rbErr = t.inner.RollbackBatch()
	} else {
		rbErr = t.inner.Rollback()
	}
	t.revertUndo()
	t.groupOps = 0
	if rbErr != nil {
		return fmt.Errorf("%w (rollback also failed: %w)", opErr, rbErr)
	}
	if dropped > 1 {
		return fmt.Errorf("%w (rolled back %d uncommitted grouped operations)", opErr, dropped)
	}
	return opErr
}

// Insert adds an object. IDs must be unique; inserting a duplicate ID is
// not detected (two entries will coexist). Without group commit the insert
// publishes as its own epoch; under grouping it joins the open group. On
// failure the tree rolls back to the last committed epoch — dropping any
// uncommitted grouped operations with it — and remains usable.
func (t *Tree) Insert(id int64, pdf PDF) error {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	return t.insertLocked(id, pdf)
}

// insertLocked is Insert for a caller holding the writer mutex.
func (t *Tree) insertLocked(id int64, pdf PDF) error {
	t.beginGroupOp()
	if err := t.inner.Insert(core.Object{ID: id, PDF: pdf}); err != nil {
		return t.rollback(err)
	}
	t.trackInsert(id, pdf.MBR())
	return t.noteOp()
}

// Delete removes an object by ID. Objects inserted in a previous process
// lifetime (reopened file-backed trees) need DeleteWithRegion instead.
// Commit granularity follows the group-commit policy (see Insert);
// snapshots pinned before the group's commit still see the object.
func (t *Tree) Delete(id int64) error {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	return t.deleteLocked(id)
}

// deleteLocked is Delete for a caller holding the writer mutex.
func (t *Tree) deleteLocked(id int64) error {
	mbr, ok := t.pdfs[id]
	if !ok {
		return fmt.Errorf("uncertain: id %d not tracked in this session; use DeleteWithRegion", id)
	}
	return t.deleteWithRegionLocked(id, mbr.rect())
}

// DeleteWithRegion removes an object by ID and its region MBR (the pdf's
// MBR at insertion time). Commit granularity follows the group-commit
// policy (see Insert). A not-found delete mutates nothing and leaves the
// open group intact.
func (t *Tree) DeleteWithRegion(id int64, regionMBR Rect) error {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	return t.deleteWithRegionLocked(id, regionMBR)
}

// deleteWithRegionLocked is DeleteWithRegion for a caller holding the
// writer mutex.
func (t *Tree) deleteWithRegionLocked(id int64, regionMBR Rect) error {
	t.beginGroupOp()
	if err := t.inner.Delete(id, regionMBR); err != nil {
		if errors.Is(err, core.ErrNotFound) {
			return err // nothing mutated; no rollback needed
		}
		return t.rollback(err)
	}
	t.trackDelete(id)
	return t.noteOp()
}

// Search answers a probabilistic range query: the objects appearing in
// rect with probability ≥ prob (prob in (0, 1]). It runs against a
// snapshot of the latest committed epoch with no lock held, so any number
// of goroutines search in parallel with each other and with a live writer.
// Each query's refinement sampler is seeded from the (tree seed, query)
// pair, so results are reproducible per query whatever the interleaving.
// The traversal checks ctx before every page fetch and refinement
// integration, so cancellation and deadlines take effect within roughly
// one page latency; on early exit (ctx.Err(), or ErrBudgetExceeded under
// WithPageBudget) the results and stats gathered so far are returned
// alongside the error.
func (t *Tree) Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error) {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.RangeQuery(ctx, core.Query{Rect: rect, Prob: prob}, resolveOptions(opts))
}

// Snapshot pins the latest committed epoch and returns a handle whose
// queries all observe that same frozen tree — a consistent multi-query
// read. Close it when done; the pin holds the epoch's retired pages from
// reclamation until then.
func (t *Tree) Snapshot() *Snapshot {
	return &Snapshot{inner: t.inner.Snapshot()}
}

// Snapshot is a pinned, immutable view of one committed epoch of a Tree.
// All queries on it observe the same tree regardless of concurrent
// writers; Close releases the pin (idempotent). The zero value is not
// usable — obtain one from Tree.Snapshot.
type Snapshot struct {
	inner *core.Snapshot
}

// Search answers a probabilistic range query against the pinned epoch
// (same contract as Tree.Search, minus the "latest epoch" part).
func (s *Snapshot) Search(ctx context.Context, rect Rect, prob float64, opts ...QueryOption) ([]Result, Stats, error) {
	return s.inner.RangeQuery(ctx, core.Query{Rect: rect, Prob: prob}, resolveOptions(opts))
}

// NearestNeighbors answers an expected-distance k-NN query against the
// pinned epoch.
func (s *Snapshot) NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error) {
	return s.inner.NearestNeighbors(ctx, q, k, resolveOptions(opts))
}

// Len returns the object count at the pinned epoch.
func (s *Snapshot) Len() int { return s.inner.Len() }

// Epoch returns the pinned epoch number.
func (s *Snapshot) Epoch() uint64 { return s.inner.Epoch() }

// CheckInvariants validates the pinned epoch's structure.
func (s *Snapshot) CheckInvariants() error { return s.inner.CheckInvariants() }

// Close releases the pin; idempotent. Retired pages of later epochs drain
// at the next writer-side commit or flush.
func (s *Snapshot) Close() { s.inner.Close() }

// SetSimulatedPageLatency arms or disarms the simulated storage latency at
// runtime — e.g. zero during a bulk build, then the target value for
// measurement. Works on any tree built by NewTree/OpenTree, whatever the
// Config started with, and is safe to call concurrently with queries.
//
// Deprecated: set Config.SimulatedPageLatency when opening the index; the
// mutator remains for build-then-measure tooling.
func (t *Tree) SetSimulatedPageLatency(d time.Duration) {
	if t.latency != nil {
		t.latency.SetDelays(d, d)
	}
}

// Flush seals any open commit group, writes every buffered dirty page
// through to the store and drains whatever retired epochs' pages the
// current snapshot pins allow. Useful before a read-heavy phase: a clean
// pool evicts without write-backs, so concurrent searches never stall on
// flushing another query's victim. Also surfaces any commit failure
// stashed by the group-deadline timer.
func (t *Tree) Flush() error {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	err := t.commitPending()
	if err == nil {
		err = t.inner.Flush()
	}
	if terr := t.takeTickErr(); err == nil {
		err = terr
	}
	return err
}

// Epoch returns the last committed epoch number (each completed mutation
// is one epoch).
func (t *Tree) Epoch() uint64 { return t.inner.Epoch() }

// GCInfo is the epoch collector's health report: committed epoch, live
// snapshot pins, pending epochs/pages/tombstones, lifetime reclaim
// counters, and whether the background reclaimer is running — the
// observability surface for leak assertions in tests and tooling.
type GCInfo = pagefile.GCInfo

// GCInfo reports the epoch collector's health; safe to call concurrently
// with queries and the writer.
func (t *Tree) GCInfo() GCInfo { return t.inner.GCInfo() }

// Len returns the object count of the latest committed epoch (lock-free;
// an in-progress mutation or open commit group is not yet visible).
func (t *Tree) Len() int { return t.inner.CommittedLen() }

// Height returns the tree height in levels.
func (t *Tree) Height() int {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	return t.inner.Height()
}

// SizeBytes reports the total storage footprint (index + data pages).
func (t *Tree) SizeBytes() int64 {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	return t.inner.SizeBytes()
}

// CacheStats reports the buffer pool's cumulative hit/miss counters
// (atomic; callable concurrently with searches).
func (t *Tree) CacheStats() (hits, misses int64) { return t.inner.CacheStats() }

// NodeCacheStats reports the decoded-node cache's cumulative hit/miss
// counters (both zero when Config.NodeCacheEntries is negative). Safe to
// call concurrently with queries and the writer.
func (t *Tree) NodeCacheStats() (hits, misses int64) { return t.inner.NodeCacheStats() }

// CheckInvariants validates the latest committed epoch's structure on a
// pinned snapshot — safe to run concurrently with a writer.
func (t *Tree) CheckInvariants() error {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.CheckInvariants()
}

// Close stops the group-deadline timer, the background reclaimer and the
// scrubber, commits any final state — sealing an open commit group —
// drains the last retired pages, and, for file-backed trees, closes the
// file. Without grouping every mutation already committed durably, so
// Close adds nothing a crash would lose; under group commit the open
// group's tail becomes durable here. Close is also the last chance to
// surface a commit failure stashed by the group-deadline timer or a
// reclaim failure stashed by an earlier commit (such a failure leaked
// pages; it never corrupted data).
//
// Close is idempotent, and remains safe after a failed commit or after
// Discard: repeated calls return nil without touching the (already
// released) storage again.
func (t *Tree) Close() error {
	if t.inOwnBatch() {
		return errInsideBatch
	}
	t.stopGroupTimer()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	t.unblockRetries()
	t.inner.StopBackgroundReclaim()
	err := t.commit()
	t.groupOps, t.undo = 0, t.undo[:0]
	if err == nil {
		err = t.inner.Reclaim()
	}
	if t.file != nil {
		if cerr := t.file.Close(); err == nil {
			err = cerr
		}
	}
	if terr := t.takeTickErr(); err == nil {
		err = terr
	}
	return err
}

// unblockRetries binds a cancelled context to the retry layer so no
// concurrent reader sits out a backoff sleep while the index tears down.
func (t *Tree) unblockRetries() {
	if t.retry == nil {
		return
	}
	//ulint:ignore ctxflow constructs an already-cancelled context on purpose; nothing upstream can cancel sooner
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t.retry.BindContext(ctx)
}

// Discard releases a file-backed tree WITHOUT committing or flushing —
// the crash-simulation exit (and the cleanup path for a handle whose
// storage already failed): the file keeps exactly the pages that were
// durable when the last operation stopped, as if the process died there.
// OpenTree then recovers the last committed epoch — under group commit,
// the last committed group boundary. In-memory trees just drop their
// state. Discard stops the group-deadline timer like Close; it is
// idempotent and safe after Close (and vice versa).
func (t *Tree) Discard() error {
	if t.inOwnBatch() {
		return errInsideBatch
	}
	t.stopGroupTimer()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tickErr = nil
	if t.closed {
		return nil
	}
	t.closed = true
	t.unblockRetries()
	t.inner.StopBackgroundReclaim()
	if t.file == nil {
		return nil
	}
	return t.file.Abort()
}

// OpenTree reopens a file-backed index created with Config.Path. The
// metadata page is the first page after the store header (as written by
// NewTree). After recovering the last committed epoch it sweeps pages a
// crash may have leaked — shadow pages retired by a published epoch that
// died before its garbage drained, or fresh pages of an aborted batch —
// back to the free list.
func OpenTree(path string, cfg Config) (*Tree, error) {
	fs, err := pagefile.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	t := &Tree{file: fs, meta: 1, pdfs: make(map[int64]flatMBR), gcOps: cfg.GroupCommitOps, gcInterval: cfg.GroupCommitInterval}
	var base pagefile.Store = fs
	if cfg.WrapStore != nil {
		base = cfg.WrapStore(base)
	}
	t.latency = pagefile.NewLatencyStore(base, cfg.SimulatedPageLatency, cfg.SimulatedPageLatency)
	inner, err := core.Open(t.buildRetry(cfg), 1, core.Options{
		MCSamples:        cfg.MonteCarloSamples,
		ExactRefinement:  cfg.ExactRefinement,
		Seed:             cfg.Seed,
		BufferPages:      cfg.BufferPages,
		NodeCacheEntries: cfg.NodeCacheEntries,
		PrefetchWorkers:  cfg.PrefetchWorkers,
		ReclaimInterval:  cfg.ReclaimInterval,
		ReclaimBudget:    cfg.ReclaimPageBudget,
		ScrubInterval:    cfg.ScrubInterval,
		ScrubBudget:      cfg.ScrubPageBudget,
		AdaptivePlanning: cfg.AdaptivePlanning,
		ProbFilter:       cfg.ProbFilter,
	})
	if err != nil {
		fs.Close()
		return nil, err
	}
	t.inner = inner
	if err := t.sweepLeakedPages(); err != nil {
		inner.StopBackgroundReclaim()
		fs.Close()
		return nil, fmt.Errorf("uncertain: open-time leak sweep: %w", err)
	}
	t.startGroupTimer()
	return t, nil
}

// sweepLeakedPages walks the recovered tree for its reachable page set and
// returns everything else in the file to the free list. The walk goes
// through the wrapped store (fault injection and simulated latency apply);
// the sweep itself runs directly on the file store — it is allocator
// repair below the versioning layer, not part of any epoch.
func (t *Tree) sweepLeakedPages() error {
	reach, err := t.inner.ReachablePages()
	if err != nil {
		return err
	}
	reach[t.meta] = true
	_, err = t.file.SweepLeaked(reach)
	return err
}
