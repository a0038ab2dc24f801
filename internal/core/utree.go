package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
	"repro/internal/rstar"
)

// Options configures a Tree.
type Options struct {
	// Dim is the data dimensionality (required, ≥ 1).
	Dim int
	// Kind selects U-tree (default) or U-PCR.
	Kind Kind
	// CatalogSize m; 0 selects the paper defaults (15 for U-tree, 9 for
	// U-PCR).
	CatalogSize int
	// Store supplies page storage; nil selects an in-memory store.
	Store pagefile.Store
	// BufferPages sizes the LRU pool (default 256).
	BufferPages int
	// MCSamples is n1 of Equation 3 for refinement (default 10000; the
	// paper uses 10^6 — see DESIGN.md substitution 3).
	MCSamples int
	// ExactRefinement uses the pdf's exact-probability oracle instead of
	// Monte Carlo when available (deterministic tests).
	ExactRefinement bool
	// Seed drives the refinement sampler (default 1).
	Seed int64
	// SplitStrategy selects how node splits sort entries (ablation knob;
	// the default is the paper's median-value heuristic).
	SplitStrategy SplitStrategy
	// DisableReinsert turns off R* forced reinsertion (ablation knob).
	DisableReinsert bool
	// PrefetchWorkers bounds the async page fetches one query may have in
	// flight: the query hot paths overlap the independent page reads a
	// traversal already knows it needs (sibling children, refinement data
	// pages, speculative NN heap entries). 0 disables intra-query
	// prefetching — every page read is a sequential stall, as in the
	// paper's serial cost model. Results are byte-identical either way.
	PrefetchWorkers int
	// ReclaimInterval > 0 starts the background epoch reclaimer: retired
	// pages and data-record tombstones drain on a dedicated goroutine's
	// ticks instead of inline at Commit, bounded by ReclaimBudget page
	// operations per tick (0 selects pagefile.DefaultReclaimBudget). The
	// owner must StopBackgroundReclaim (or Close via the public API) before
	// discarding the tree.
	ReclaimInterval time.Duration
	// ReclaimBudget is the per-tick page budget of the background
	// reclaimer; ignored when ReclaimInterval is 0.
	ReclaimBudget int
	// NodeCacheEntries bounds the decoded-node cache: an LRU of node
	// values decoded from committed pages, shared lock-free across
	// readers, sitting above the buffer pool so a hot traversal skips
	// both the page lookup and the per-entry decode allocations. 0
	// selects the default (1024 entries); negative disables the cache.
	// Coherence is automatic — entries drop when the versioned store
	// physically frees their page, and shadow pages are never cached.
	NodeCacheEntries int
	// ScrubInterval > 0 starts the background page scrubber: a dedicated
	// goroutine periodically walks the committed tree and verifies page
	// checksums through the store's PageVerifier probe, quarantining
	// latent corruption before any query trips over it (see HealthInfo).
	// The owner must StopBackgroundReclaim (which stops the scrubber too)
	// before discarding the tree.
	ScrubInterval time.Duration
	// ScrubBudget bounds the page verifications one scrub tick performs
	// (0 selects DefaultScrubBudget); ignored when ScrubInterval is 0.
	ScrubBudget int
	// AdaptivePlanning enables the cost-model-driven query planner: the
	// tree maintains a CostModel over its committed shape (rebuilt at
	// commit when the tree drifts), predicts each query's node accesses
	// before descent, and picks the prefetch fan-out and speculative-issue
	// cap from the prediction — serial for cheap queries, a deep pipeline
	// for expensive ones. Measured accesses calibrate the model online.
	// Explicit per-query options (WithPrefetchWorkers, WithPageBudget)
	// always override the planner. Results are byte-identical either way.
	AdaptivePlanning bool
	// ProbFilter enables the Bernecker-style probabilistic candidate
	// filter: before refinement, each candidate's qualification probability
	// is upper-bounded from its PCR slabs and the candidate is discarded
	// when the bound falls below the query threshold. The filter only
	// drops provably non-qualifying candidates, so the result set is
	// unchanged; under Monte-Carlo refinement the sampler stream shifts
	// (fewer candidates sampled), so byte-identity to the unfiltered path
	// is guaranteed only with ExactRefinement.
	ProbFilter bool
}

// SplitStrategy selects the rectangles fed to the R* split during overflow
// (Section 5.3 discusses the trade-off).
type SplitStrategy int

const (
	// SplitMedian uses e.MBR(p_median) — the paper's heuristic avoiding one
	// sort per catalog value.
	SplitMedian SplitStrategy = iota
	// SplitAtZero uses e.MBR(p_1) = e.MBR(0) only, ignoring the catalog —
	// the naive adaptation the paper improves upon.
	SplitAtZero
	// SplitSummed runs the R* split at every catalog value and keeps the
	// partition with the smallest summed overlap — the "ideal" split whose
	// sorting cost the paper deems too expensive.
	SplitSummed
)

// Tree is a paged uncertain-data index: the U-tree of the paper or its
// U-PCR variant. The mutators and the working-root queries (RangeQuery,
// NearestNeighbors) are single-goroutine; any number of goroutines may
// query a pinned Snapshot beside the one writer.
type Tree struct {
	kind Kind
	dim  int
	cat  pcr.Catalog

	// store is the versioned (copy-on-write) view over the caller's page
	// storage; vs is the same object with its epoch surface exposed. All
	// tree I/O — node pages via the pool, data pages, metadata — goes
	// through it.
	store pagefile.Store
	vs    *pagefile.VersionedStore
	pool  *pagefile.BufferPool
	data  *pagefile.DataFile

	// ncache caches decoded nodes of committed pages (nil when disabled);
	// consulted only by the query paths — mutation descents decode
	// private copies they may edit in place.
	ncache *nodeCache

	rootPage  pagefile.PageID
	rootLevel int
	size      int

	leafCap, innerCap             int
	leafEntrySize, innerEntrySize int
	minLeaf, minInner             int
	reinsertLeaf, reinsertInner   int

	qcache  *pcr.QuantileCache
	rng     *rand.Rand
	samples int
	exact   bool

	// seed is kept so the read-only query path can derive a deterministic
	// per-query sampler (concurrent queries must not share t.rng).
	seed int64

	splitStrategy   SplitStrategy
	disableReinsert bool

	// prefetch pipelines one query's independent page reads; nil when
	// intra-query prefetching is disabled. Fixed at open time (per-query
	// overrides carry their own prefetcher), so queries read it freely.
	prefetch *pagefile.Prefetcher

	// planner is the adaptive query planner (nil unless
	// Options.AdaptivePlanning); probFilter arms the PCR-slab candidate
	// filter by default (per-query options can still flip it).
	planner    *Planner
	probFilter bool

	// Logical I/O counters (reset via ResetCounters). Atomic so the
	// read-only query path can run under a shared lock.
	nodeReads  atomic.Int64
	nodeWrites atomic.Int64

	// Update statistics for the Fig. 11 experiment.
	insertStats UpdateStats
	deleteStats UpdateStats

	// inBatch marks an open explicit batch (BeginBatch/CommitBatch).
	inBatch bool

	// ws is the writer's scratch memory for insert descents and splits.
	ws writeScratch

	// Storage-health state (see health.go and scrub.go): the quarantine
	// registry of condemned pages, the background scrubber's control
	// block and work queue, and its lifetime progress counters.
	quar         quarantine
	scrubMu      sync.Mutex
	scrub        *scrubState
	scrubQueueMu sync.Mutex
	scrubQueue   []pagefile.PageID
	scrubbed     atomic.Int64
	scrubErrs    atomic.Int64
}

// UpdateStats accumulates the paper's update-cost breakdown.
type UpdateStats struct {
	Ops        int64
	PageReads  int64 // logical node reads
	PageWrites int64 // logical node writes
	CPUTime    time.Duration
}

// New creates an empty index.
func New(opt Options) (*Tree, error) {
	if opt.Dim < 1 {
		return nil, fmt.Errorf("core: dimensionality %d", opt.Dim)
	}
	m := opt.CatalogSize
	if m == 0 {
		if opt.Kind == UPCR {
			m = 9
		} else {
			m = 15
		}
	}
	if m < 2 {
		return nil, fmt.Errorf("core: catalog size %d too small", m)
	}
	store := opt.Store
	if store == nil {
		store = pagefile.NewMemStore()
	}
	bufPages := opt.BufferPages
	if bufPages == 0 {
		bufPages = 256
	}
	samples := opt.MCSamples
	if samples == 0 {
		samples = 10000
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	vs := pagefile.NewVersionedStore(store, 0)
	t := &Tree{
		kind:    opt.Kind,
		dim:     opt.Dim,
		cat:     pcr.UniformCatalog(m),
		store:   vs,
		vs:      vs,
		qcache:  pcr.NewQuantileCache(),
		rng:     rand.New(rand.NewSource(seed)),
		samples: samples,
		exact:   opt.ExactRefinement,

		splitStrategy:   opt.SplitStrategy,
		disableReinsert: opt.DisableReinsert,
	}
	t.seed = seed
	if opt.AdaptivePlanning {
		t.planner = newPlanner()
	}
	t.probFilter = opt.ProbFilter
	t.setPrefetchWorkers(opt.PrefetchWorkers)
	t.pool = pagefile.NewBufferPool(t.store, bufPages)
	t.vs.AttachPool(t.pool)
	t.attachNodeCache(opt.NodeCacheEntries)
	t.data = pagefile.NewDataFile(t.store)
	t.vs.SetTombstoner(t.data.DeleteBatch)
	t.leafCap, t.innerCap = capacities(t.kind, t.dim, m)
	t.leafEntrySize, t.innerEntrySize = entrySizes(t.kind, t.dim, m)
	if t.leafCap < 4 || t.innerCap < 4 {
		return nil, fmt.Errorf("core: %v with d=%d m=%d yields fanout %d/%d < 4; reduce the catalog",
			t.kind, t.dim, m, t.leafCap, t.innerCap)
	}
	t.minLeaf = max1(t.leafCap * 2 / 5)
	t.minInner = max1(t.innerCap * 2 / 5)
	t.reinsertLeaf = max1(t.leafCap * 3 / 10)
	t.reinsertInner = max1(t.innerCap * 3 / 10)

	root, err := t.allocNode(0)
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.rootPage = root.page
	t.rootLevel = 0
	// Commit the empty tree as epoch 1 so snapshots exist from birth and
	// the copy-on-write discipline applies to every later mutation.
	if err := t.Commit(); err != nil {
		return nil, err
	}
	t.vs.StartReclaimer(opt.ReclaimInterval, opt.ReclaimBudget)
	t.StartScrubber(opt.ScrubInterval, opt.ScrubBudget)
	return t, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Kind returns the index variant.
func (t *Tree) Kind() Kind { return t.kind }

// Dim returns the data dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Catalog returns the U-catalog.
func (t *Tree) Catalog() pcr.Catalog { return t.cat }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.rootLevel + 1 }

// Fanout reports the leaf and intermediate node capacities (for Table 1
// style reporting).
func (t *Tree) Fanout() (leaf, inner int) { return t.leafCap, t.innerCap }

// SizeBytes reports total pages × page size (index + data pages).
func (t *Tree) SizeBytes() int64 {
	return int64(t.store.NumPages()) * pagefile.PageSize
}

// IndexPages returns the number of tree pages (excludes data pages), walking
// the tree; O(nodes).
func (t *Tree) IndexPages() (int, error) {
	count := 0
	err := t.walk(t.rootPage, func(n *node) error {
		count++
		return nil
	})
	return count, err
}

// InsertStats and DeleteStats expose the accumulated update costs.
func (t *Tree) InsertStats() UpdateStats { return t.insertStats }
func (t *Tree) DeleteStats() UpdateStats { return t.deleteStats }

// ResetCounters zeroes the logical I/O counters and update stats.
func (t *Tree) ResetCounters() {
	t.nodeReads.Store(0)
	t.nodeWrites.Store(0)
	t.insertStats = UpdateStats{}
	t.deleteStats = UpdateStats{}
}

// NodeIO returns the logical node reads/writes since the last reset.
func (t *Tree) NodeIO() (reads, writes int64) {
	return t.nodeReads.Load(), t.nodeWrites.Load()
}

// CacheStats reports the buffer pool's hit/miss counters, for throughput
// reporting in batch query stats.
func (t *Tree) CacheStats() (hits, misses int64) { return t.pool.HitRate() }

// attachNodeCache builds the decoded-node cache per Options.NodeCacheEntries
// (0 → default, negative → disabled) and registers its invalidation hook
// with the versioned store, so entries drop the moment their page is
// physically freed.
func (t *Tree) attachNodeCache(entries int) {
	if entries < 0 {
		return
	}
	if entries == 0 {
		entries = defaultNodeCacheEntries
	}
	t.ncache = newNodeCache(entries)
	t.vs.AttachInvalidator(t.ncache.invalidate)
}

// NodeCacheStats reports the decoded-node cache's cumulative hit/miss
// counters (both zero when the cache is disabled).
func (t *Tree) NodeCacheStats() (hits, misses int64) {
	if t.ncache == nil {
		return 0, 0
	}
	return t.ncache.stats()
}

// setPrefetchWorkers arms the default intra-query prefetch fan-out
// (0 disables). Fixed at open time — per-query overrides go through
// QueryOpts.Prefetch, which takes no tree state at all.
func (t *Tree) setPrefetchWorkers(n int) {
	if n <= 0 {
		t.prefetch = nil
		return
	}
	t.prefetch = pagefile.NewPrefetcher(n)
}

// PrefetchWorkers reports the configured intra-query prefetch fan-out (0
// when disabled).
func (t *Tree) PrefetchWorkers() int {
	if t.prefetch == nil {
		return 0
	}
	return t.prefetch.Workers()
}

// Flush writes the buffered data page and all buffered node pages through
// to the store and drains whatever retired pages the current snapshot pins
// allow (writer-side, like Commit).
func (t *Tree) Flush() error {
	if err := t.data.Flush(); err != nil {
		return err
	}
	if err := t.pool.Flush(); err != nil {
		return err
	}
	return t.vs.Reclaim()
}

// buildLeafEntry derives the leaf entry of an object: PCRs at the catalog
// values, then CFBs (U-tree) or the PCR list itself (U-PCR).
func (t *Tree) buildLeafEntry(o Object) (entry, error) {
	if o.PDF.Dim() != t.dim {
		return entry{}, fmt.Errorf("core: object dim %d, tree dim %d", o.PDF.Dim(), t.dim)
	}
	pcrs := pcr.Compute(o.PDF, t.cat, t.qcache)
	e := entry{id: o.ID, mbr: o.PDF.MBR()}
	if t.kind == UTree {
		e.out = pcr.FitOut(pcrs)
		e.in = pcr.FitIn(pcrs)
	} else {
		e.pcrs = pcrs.Boxes
		// pcr(0) is the region MBR by construction; keep them identical so
		// the shared serialization slot holds.
		e.pcrs[0] = e.mbr.Clone()
	}
	return e, nil
}

// Insert adds an object to the index. The object's details (pdf parameters)
// are appended to the data file and referenced from the leaf entry.
func (t *Tree) Insert(o Object) error {
	start := time.Now()
	r0, w0 := t.nodeReads.Load(), t.nodeWrites.Load()

	e, err := t.buildLeafEntry(o)
	if err != nil {
		return err
	}
	rec, err := encodeObject(o)
	if err != nil {
		return err
	}
	addr, err := t.data.Append(rec)
	if err != nil {
		return err
	}
	e.addr = addr

	if err := t.placeEntry(e, 0); err != nil {
		return err
	}
	t.size++

	t.insertStats.Ops++
	t.insertStats.PageReads += t.nodeReads.Load() - r0
	t.insertStats.PageWrites += t.nodeWrites.Load() - w0
	t.insertStats.CPUTime += time.Since(start)
	return nil
}

// pathElem records one step of a root-to-node descent.
type pathElem struct {
	n        *node
	childIdx int
}

// levelSet records the levels that already used forced reinsertion within
// one top-level operation (R* reinserts at most once per level). A tree
// never reaches 64 levels: that takes more than 4^63 objects.
type levelSet uint64

func (s *levelSet) add(level int)     { *s |= 1 << level }
func (s levelSet) has(level int) bool { return s&(1<<level) != 0 }

// placeEntry inserts e at the given level as one top-level operation, with
// its own forced-reinsertion budget.
func (t *Tree) placeEntry(e entry, level int) error {
	var reinserted levelSet
	return t.insertEntry(e, level, &reinserted)
}

// insertEntry places e on a node at the target level, handling overflow via
// forced reinsertion (once per level per top-level operation) and splits.
// An overfull node is never serialized: reinsertion/split shrink it in
// memory first.
func (t *Tree) insertEntry(e entry, level int, reinserted *levelSet) error {
	n, path, err := t.choosePath(e, level)
	if err != nil {
		return err
	}
	n.entries = append(n.entries, e)
	capacity := t.leafCap
	if !n.leaf() {
		capacity = t.innerCap
	}
	if len(n.entries) <= capacity {
		if err := t.writeNode(n); err != nil {
			return err
		}
		return t.refreshPath(path, n)
	}
	// Ancestors must cover the new entry regardless of how the overflow is
	// resolved; n itself is rewritten by the overflow treatment.
	if err := t.refreshPath(path, n); err != nil {
		return err
	}
	return t.handleOverflow(n, path, reinserted)
}

// choosePath descends to the insertion node at the target level using the
// summed-metric ChooseSubtree (Section 5.3), returning the node and the
// root-to-parent path.
func (t *Tree) choosePath(e entry, level int) (*node, []pathElem, error) {
	n, err := t.readNode(t.rootPage)
	if err != nil {
		return nil, nil, err
	}
	eBoxes := t.boundary(&e, level == 0, t.ws.bnd.get(2, t.dim))
	var path []pathElem
	for n.level > level {
		idx := t.chooseSubtree(n, eBoxes)
		path = append(path, pathElem{n: n, childIdx: idx})
		child, err := t.readNode(n.entries[idx].child)
		if err != nil {
			return nil, nil, err
		}
		n = child
	}
	return n, path, nil
}

// chooseSubtree picks the child entry of n minimizing the summed penalty:
// overlap enlargement when children are leaves, else area enlargement, with
// summed area as tiebreak (the R* criteria with each metric replaced by its
// sum over the catalog, Section 5.3).
//
// The sums run with catalog slot j outermost: each slot's boxes of every
// child are interpolated once into scratch, and per-child accumulators add
// the terms in the same order as Σ_j Σ_k, so the choice is bit-identical
// to summing each child's metrics separately — without allocating.
func (t *Tree) chooseSubtree(n *node, eBoxes []geom.Rect) int {
	ws := &t.ws
	ne, nb := len(n.entries), len(eBoxes)
	grown := ws.grown.get(ne*nb, t.dim)
	for i := range n.entries {
		g := grown[i*nb : (i+1)*nb]
		copyBoxes(g, n.entries[i].boxes)
		unionBoundaries(g, eBoxes)
	}
	acc := ws.floatsZero(3 * ne)
	dOv, enl, area := acc[:ne], acc[ne:2*ne], acc[2*ne:]
	at := ws.at.get(ne, t.dim)
	gj := ws.one.get(1, t.dim)[0]
	overlaps := n.level == 1
	for j := 0; j < t.cat.Size(); j++ {
		for k := range n.entries {
			t.boxAtInto(at[k], n.entries[k].boxes, j)
		}
		for i := range n.entries {
			t.boxAtInto(gj, grown[i*nb:(i+1)*nb], j)
			oj := at[i]
			enl[i] += gj.Area() - oj.Area()
			area[i] += oj.Area()
			if !overlaps {
				continue
			}
			inside := gj.Contains(oj)
			for k := range at {
				if k == i {
					continue
				}
				gOv := overlap(gj, at[k])
				if gOv == 0 && inside {
					// oj ⊆ gj, and Overlap is monotone under rounding,
					// so oj's overlap is 0 too: the term is 0 − 0.
					continue
				}
				dOv[i] += gOv - overlap(oj, at[k])
			}
		}
	}
	best := 0
	bestOv, bestEnl, bestArea := inf(), inf(), inf()
	for i := range n.entries {
		better := enl[i] < bestEnl || (enl[i] == bestEnl && area[i] < bestArea)
		if overlaps {
			better = dOv[i] < bestOv || (dOv[i] == bestOv && better)
		}
		if better {
			bestOv, bestEnl, bestArea, best = dOv[i], enl[i], area[i], i
		}
	}
	return best
}

func inf() float64 { return 1e308 }

// summedCenterDist is Σ_j CDIST(aBoxes_j, bBoxes_j).
func (t *Tree) summedCenterDist(a, b []geom.Rect) float64 {
	ab := t.ws.one.get(2, t.dim)
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		t.boxAtInto(ab[0], a, j)
		t.boxAtInto(ab[1], b, j)
		s += centerDist(ab[0], ab[1])
	}
	return s
}

// nodeBoundary returns a node's boundary boxes (union over its entries) in
// fresh storage. It touches no writer scratch, so any goroutine may call it.
func (t *Tree) nodeBoundary(n *node) []geom.Rect {
	return t.unionBoundary(nil, n, newBoxes(2, t.dim))
}

// unionBoundary writes n's boundary boxes into dst and returns it; a dst
// of the wrong shape (nil included) is replaced by fresh storage. scratch
// (two rectangles) holds each U-tree leaf entry's boundary in turn.
func (t *Tree) unionBoundary(dst []geom.Rect, n *node, scratch []geom.Rect) []geom.Rect {
	leaf := n.leaf()
	b0 := t.boundary(&n.entries[0], leaf, scratch)
	if len(dst) != len(b0) || len(dst[0].Lo) != t.dim {
		dst = newBoxes(len(b0), t.dim)
	}
	copyBoxes(dst, b0)
	for i := 1; i < len(n.entries); i++ {
		unionBoundaries(dst, t.boundary(&n.entries[i], leaf, scratch))
	}
	return dst
}

// refreshEntry recomputes the parent entry e over its (mutated) child node
// in place — e's boxes belong to a privately decoded node — and points it
// at the child's page, which copy-on-write may have relocated.
func (t *Tree) refreshEntry(e *entry, child *node) {
	e.boxes = t.unionBoundary(e.boxes, child, t.ws.bnd.get(2, t.dim))
	e.child = child.page
}

// refreshPath recomputes the parent entries' boxes bottom-up along the
// descent path after child mutation, and refreshes the child page pointer
// — copy-on-write relocates a rewritten child to a shadow page, so the
// parent entry must follow it.
func (t *Tree) refreshPath(path []pathElem, target *node) error {
	child := target
	for i := len(path) - 1; i >= 0; i-- {
		pe := path[i]
		t.refreshEntry(&pe.n.entries[pe.childIdx], child)
		if err := t.writeNode(pe.n); err != nil {
			return err
		}
		child = pe.n
	}
	return nil
}

// handleOverflow applies R* overflow treatment: forced reinsertion the
// first time a level overflows within one top-level operation (never for
// the root), split otherwise.
func (t *Tree) handleOverflow(n *node, path []pathElem, reinserted *levelSet) error {
	capByLevel := t.leafCap
	if !n.leaf() {
		capByLevel = t.innerCap
	}
	if len(n.entries) <= capByLevel {
		return nil
	}
	if len(path) > 0 && !reinserted.has(n.level) && !t.disableReinsert {
		reinserted.add(n.level)
		return t.forceReinsert(n, path, reinserted)
	}
	return t.split(n, path, reinserted)
}

// reinsertCand is an entry of an overflowing node with its summed centroid
// distance from the node's boundary.
type reinsertCand struct {
	idx  int
	dist float64
}

// forceReinsert removes the 30% of entries whose summed centroid distance
// from the node's boundary is largest, then reinserts them closest-first.
func (t *Tree) forceReinsert(n *node, path []pathElem, reinserted *levelSet) error {
	ws := &t.ws
	scratch := ws.bnd.get(2, t.dim)
	nodeBoxes := t.unionBoundary(ws.node.get(t.boundaryLen(), t.dim), n, scratch)
	cands := ws.cands[:0]
	for i := range n.entries {
		cands = append(cands, reinsertCand{i, t.summedCenterDist(t.boundary(&n.entries[i], n.leaf(), scratch), nodeBoxes)})
	}
	ws.cands = cands
	// Selection-sort the p farthest (p is small).
	p := t.reinsertLeaf
	if !n.leaf() {
		p = t.reinsertInner
	}
	for i := 0; i < p; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist > cands[maxJ].dist {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
	remove := ws.marks[:0]
	for range n.entries {
		remove = append(remove, false)
	}
	ws.marks = remove
	for i := 0; i < p; i++ {
		remove[cands[i].idx] = true
	}
	// removed outlives the scratch: the reinsertions below reuse it.
	removed := make([]entry, 0, p)
	kept := n.entries[:0]
	for i := range n.entries {
		if remove[i] {
			removed = append(removed, n.entries[i])
		} else {
			kept = append(kept, n.entries[i])
		}
	}
	n.entries = kept
	if err := t.writeNode(n); err != nil {
		return err
	}
	if err := t.refreshPath(path, n); err != nil {
		return err
	}
	// Close reinsert: the selection placed the farthest first; reinsert in
	// reverse so the closest go back in first.
	for i := len(removed) - 1; i >= 0; i-- {
		if err := t.insertEntry(removed[i], n.level, reinserted); err != nil {
			return err
		}
	}
	return nil
}

// split divides an overflowing node. Per Section 5.3, the entry
// distribution is decided by the R* split applied to the e.MBR(p_median)
// rectangles of the node's entries (other strategies available as ablation
// knobs).
func (t *Tree) split(n *node, path []pathElem, reinserted *levelSet) error {
	minFill := t.minLeaf
	if !n.leaf() {
		minFill = t.minInner
	}
	li, ri := t.chooseSplit(n, minFill)
	left := make([]entry, 0, len(li))
	right := make([]entry, 0, len(ri))
	for _, i := range li {
		left = append(left, n.entries[i])
	}
	for _, i := range ri {
		right = append(right, n.entries[i])
	}
	n.entries = left
	sib, err := t.allocNode(n.level)
	if err != nil {
		return err
	}
	sib.entries = right
	if err := t.writeNode(n); err != nil {
		return err
	}
	if err := t.writeNode(sib); err != nil {
		return err
	}

	if len(path) == 0 {
		// Root split: grow the tree.
		newRoot, err := t.allocNode(n.level + 1)
		if err != nil {
			return err
		}
		newRoot.entries = []entry{
			{child: n.page, boxes: t.nodeBoundary(n)},
			{child: sib.page, boxes: t.nodeBoundary(sib)},
		}
		if err := t.writeNode(newRoot); err != nil {
			return err
		}
		t.rootPage = newRoot.page
		t.rootLevel = newRoot.level
		return nil
	}

	parent := path[len(path)-1]
	t.refreshEntry(&parent.n.entries[parent.childIdx], n) // COW may have moved n
	parent.n.entries = append(parent.n.entries, entry{child: sib.page, boxes: t.nodeBoundary(sib)})
	if len(parent.n.entries) <= t.innerCap {
		if err := t.writeNode(parent.n); err != nil {
			return err
		}
		return t.refreshPath(path[:len(path)-1], parent.n)
	}
	if err := t.refreshPath(path[:len(path)-1], parent.n); err != nil {
		return err
	}
	return t.handleOverflow(parent.n, path[:len(path)-1], reinserted)
}

// chooseSplit returns the two index groups for splitting node n according
// to the tree's split strategy. The rectangles it feeds the R* split live
// in writer scratch.
func (t *Tree) chooseSplit(n *node, minFill int) (left, right []int) {
	ws := &t.ws
	ne := len(n.entries)
	leafBnd := ws.bnds.get(2*ne, t.dim)
	boundaries := ws.sets[:0]
	for i := range n.entries {
		boundaries = append(boundaries, t.boundary(&n.entries[i], n.leaf(), leafBnd[2*i:2*i+2]))
	}
	ws.sets = boundaries
	rects := ws.at.get(ne, t.dim)
	rectsAt := func(j int) []geom.Rect {
		for i := range boundaries {
			t.boxAtInto(rects[i], boundaries[i], j)
		}
		return rects
	}
	switch t.splitStrategy {
	case SplitAtZero:
		return rstar.SplitGroups(rectsAt(0), minFill)
	case SplitSummed:
		// Evaluate the R* split at every catalog value, score each
		// partition by its summed group overlap, keep the best.
		bestScore := inf()
		for j := 0; j < t.cat.Size(); j++ {
			li, ri := rstar.SplitGroups(rectsAt(j), minFill)
			score := t.partitionOverlap(boundaries, li, ri)
			if score < bestScore {
				bestScore = score
				left, right = li, ri
			}
		}
		return left, right
	default: // SplitMedian — the paper's heuristic.
		return rstar.SplitGroups(rectsAt(t.cat.MedianIndex()), minFill)
	}
}

// partitionOverlap scores a candidate split: Σ_j OVERLAP(mbr(left, j),
// mbr(right, j)).
func (t *Tree) partitionOverlap(boundaries [][]geom.Rect, li, ri []int) float64 {
	nb := len(boundaries[0])
	groups := t.ws.grown.get(2*nb, t.dim)
	lb, rb := groups[:nb], groups[nb:]
	for g, idx := range [2][]int{li, ri} {
		gb := groups[g*nb : (g+1)*nb]
		copyBoxes(gb, boundaries[idx[0]])
		for _, i := range idx[1:] {
			unionBoundaries(gb, boundaries[i])
		}
	}
	ab := t.ws.one.get(2, t.dim)
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		t.boxAtInto(ab[0], lb, j)
		t.boxAtInto(ab[1], rb, j)
		s += overlap(ab[0], ab[1])
	}
	return s
}

// walk visits every node of the tree.
func (t *Tree) walk(page pagefile.PageID, fn func(*node) error) error {
	n, err := t.readNode(page)
	if err != nil {
		return err
	}
	if err := fn(n); err != nil {
		return err
	}
	if n.leaf() {
		return nil
	}
	for i := range n.entries {
		if err := t.walk(n.entries[i].child, fn); err != nil {
			return err
		}
	}
	return nil
}
