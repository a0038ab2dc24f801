package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// This file is the adaptive query planner: the component that finally
// consumes the analytical cost model's predictions (costmodel.go) at query
// time instead of leaving them as offline diagnostics. Per query it
// predicts the node accesses with EstimateNodeAccesses and derives the
// execution strategy from the prediction — serial descent when the query
// is predicted cheap (a prefetch pipeline's setup would cost more than the
// handful of stalls it hides), a deep prefetch pipeline with an issuance
// cap when the query is predicted expensive. Measured accesses feed back
// into CostModel.Calibrate on a sliding window, so predictions track the
// live tree without an offline calibration pass.
//
// Planner decisions are strictly result-neutral: they pick prefetch
// fan-out and speculative-issue caps, never which pages the traversal
// logically reads or the order candidates refine in, so a planned query
// returns byte-identical results to the unplanned path.

const (
	// plannerMinSize is the smallest committed tree the planner models —
	// below it every query is a page or two and planning is pure overhead.
	plannerMinSize = 64
	// plannerWindow is the sliding calibration window: after this many
	// observed queries the accumulated (predicted, measured) pairs refit
	// the model's multiplicative correction and the window restarts.
	plannerWindow = 32
	// plannerSerialThreshold: below this many predicted node accesses the
	// query runs serially (no prefetch pipeline).
	plannerSerialThreshold = 6
	// plannerMaxFanout caps the adaptive prefetch fan-out.
	plannerMaxFanout = 16
)

// Planner holds the per-tree adaptive-planning state: the current cost
// model (rebuilt by the writer when the tree drifts), the sliding
// calibration window, and the lifetime counters behind PlannerInfo.
// Method receivers never expose the model itself; queries and the writer
// synchronize on mu.
type Planner struct {
	mu        sync.Mutex
	model     *CostModel
	builtSize int // tree size when the model was last built

	// Sliding calibration window (under mu).
	predWin []float64
	measWin []float64

	// Per-fanout prefetcher cache: planner queries at one fan-out share a
	// Prefetcher (and so a global in-flight bound), and no query allocates
	// a semaphore channel on the hot path.
	prefetchers map[int]*pagefile.Prefetcher

	queries  atomic.Int64
	rebuilds atomic.Int64
	// predSum/measSum are lifetime access sums (under mu, read by
	// PlannerInfo) for the predicted-vs-measured diagnostic.
	predSum float64
	measSum float64
}

func newPlanner() *Planner {
	return &Planner{prefetchers: make(map[int]*pagefile.Prefetcher)}
}

// PlannerInfo is the observability snapshot of a tree's adaptive planner,
// exposed through the public index surface and the CLIs.
type PlannerInfo struct {
	// Enabled reports whether adaptive planning is on for the index.
	Enabled bool
	// Queries is the number of queries the planner decided for (and
	// observed to completion).
	Queries int64
	// PredictedAccesses and MeasuredAccesses are the lifetime sums of
	// predicted and measured node accesses over those queries; their ratio
	// is the live prediction error.
	PredictedAccesses float64
	MeasuredAccesses  float64
	// CalibrationFactor is the model's current multiplicative correction
	// (1 = pure analytic model, 0 = no model built yet).
	CalibrationFactor float64
	// ModelRebuilds counts commit-time cost-model rebuilds.
	ModelRebuilds int64
}

// Add merges o into i — the merge rule for sharded indexes: counters and
// sums add, Enabled ors, and the calibration factor becomes the
// query-weighted mean so a mostly-idle shard doesn't dominate it.
func (i *PlannerInfo) Add(o PlannerInfo) {
	wi, wo := float64(i.Queries), float64(o.Queries)
	if wi+wo > 0 {
		i.CalibrationFactor = (i.CalibrationFactor*wi + o.CalibrationFactor*wo) / (wi + wo)
	} else if o.CalibrationFactor != 0 {
		i.CalibrationFactor = o.CalibrationFactor
	}
	i.Enabled = i.Enabled || o.Enabled
	i.Queries += o.Queries
	i.PredictedAccesses += o.PredictedAccesses
	i.MeasuredAccesses += o.MeasuredAccesses
	i.ModelRebuilds += o.ModelRebuilds
}

// PlannerInfo reports the planner's lifetime diagnostics (all zero with
// adaptive planning off).
func (t *Tree) PlannerInfo() PlannerInfo {
	p := t.planner
	if p == nil {
		return PlannerInfo{}
	}
	info := PlannerInfo{
		Enabled:       true,
		Queries:       p.queries.Load(),
		ModelRebuilds: p.rebuilds.Load(),
	}
	p.mu.Lock()
	info.PredictedAccesses = p.predSum
	info.MeasuredAccesses = p.measSum
	if p.model != nil {
		info.CalibrationFactor = p.model.CalibrationFactor()
	}
	p.mu.Unlock()
	return info
}

// readNodeQuiet reads a node without counting a logical node access — the
// planner's commit-time bookkeeping must not perturb the update-cost
// statistics the experiments measure.
func (t *Tree) readNodeQuiet(id pagefile.PageID) (*node, error) {
	if err := t.checkQuarantine(id); err != nil {
		return nil, err
	}
	buf, err := t.pool.Get(id)
	if err != nil {
		return nil, t.noteReadError(id, err)
	}
	return t.decodeNode(id, buf)
}

// rootBoundaryMBR computes the committed tree's root bounding box at
// p = 0 — the rectangle containing every indexed object's region MBR
// (containment chain: inner boxes at p=0 ⊇ cfb_out(0) ⊇ pcr(0) = the
// object MBR). The zero Rect means "unknown" (empty tree or read failure)
// and disables every consumer (shard pruning, model domains).
func (t *Tree) rootBoundaryMBR() geom.Rect {
	n, err := t.readNodeQuiet(t.rootPage)
	if err != nil || len(n.entries) == 0 {
		return geom.Rect{}
	}
	return t.nodeBoundary(n)[0] // boxAt(·, 0) is the first box
}

// maybeRefreshPlanner is the writer-side hook, called after each commit:
// when the committed tree has drifted more than 25% (or 64 objects,
// whichever is larger) from the size the model was built at, the model is
// rebuilt over the current root boundary. The fitted calibration factor
// carries over — level statistics change faster than the workload's
// systematic prediction bias.
func (t *Tree) maybeRefreshPlanner() {
	p := t.planner
	if p == nil || t.size < plannerMinSize {
		return
	}
	p.mu.Lock()
	built := p.builtSize
	hasModel := p.model != nil
	p.mu.Unlock()
	drift := t.size - built
	if drift < 0 {
		drift = -drift
	}
	threshold := built / 4
	if threshold < 64 {
		threshold = 64
	}
	if hasModel && drift <= threshold {
		return
	}
	domain := t.rootBoundaryMBR()
	if domain.Dim() != t.dim {
		return
	}
	for i := 0; i < t.dim; i++ {
		if domain.Side(i) <= 0 {
			return // degenerate data space; the model would reject it
		}
	}
	model, err := t.BuildCostModel(domain)
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.model != nil {
		model.calibce = p.model.calibce
	}
	p.model = model
	p.builtSize = t.size
	p.mu.Unlock()
	p.rebuilds.Add(1)
}

// planQuery is the query-side decision point, called by every range entry
// after resolvePlan: with adaptive planning on and no explicit per-query
// prefetch/budget override (explicit options stay authoritative), it
// predicts the query's node accesses and arms the plan accordingly —
// serial for cheap queries, a pooled prefetcher with an issuance cap for
// expensive ones. It returns the prediction and whether a decision was
// made (so the caller can feed the measured accesses back via observe).
func (t *Tree) planQuery(q Query, o QueryOpts, p *qplan) (pred float64, armed bool) {
	pl := t.planner
	if pl == nil || o.PrefetchSet || p.budget > 0 {
		return 0, false
	}
	pl.mu.Lock()
	model := pl.model
	pl.mu.Unlock()
	if model == nil {
		return 0, false
	}
	sides := make([]float64, t.dim)
	for i := range sides {
		sides[i] = q.Rect.Side(i)
	}
	pred = model.EstimateNodeAccesses(sides, q.Prob, t.CatalogIndexFor(q.Prob))
	if math.IsNaN(pred) || pred < 1 {
		pred = 1
	}
	if pred < plannerSerialThreshold {
		p.prefetch = nil
		p.issueCap = 0
		return pred, true
	}
	fan := int(pred / 4)
	if fan < 2 {
		fan = 2
	}
	if fan > plannerMaxFanout {
		fan = plannerMaxFanout
	}
	p.prefetch = pl.prefetcher(fan)
	// The internal page budget: speculative async issuance is capped near
	// the predicted access count, so a badly overestimated query cannot
	// flood the buffer pool. Unissued pages fall back to synchronous reads
	// — the cap shapes I/O, it never stops the traversal.
	p.issueCap = int(2*pred) + 8
	return pred, true
}

// prefetcher returns the shared planner prefetcher for one fan-out.
func (p *Planner) prefetcher(fan int) *pagefile.Prefetcher {
	p.mu.Lock()
	defer p.mu.Unlock()
	pf, ok := p.prefetchers[fan]
	if !ok {
		pf = pagefile.NewPrefetcher(fan)
		p.prefetchers[fan] = pf
	}
	return pf
}

// observe feeds one completed query's measurement into the sliding
// calibration window; every plannerWindow observations the window refits
// the model's multiplicative correction. Only cleanly completed queries
// observe — a cancelled or budget-stopped traversal measures the
// interruption, not the tree.
func (p *Planner) observe(pred float64, measured int) {
	p.queries.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.predSum += pred
	p.measSum += float64(measured)
	p.predWin = append(p.predWin, pred)
	p.measWin = append(p.measWin, float64(measured))
	if len(p.predWin) >= plannerWindow && p.model != nil {
		// Refit a copy and publish it: queries use the model they loaded
		// without holding mu, so a published model is never mutated.
		// Calibrate rejects degenerate windows (all-zero predictions);
		// either way the window slides.
		m := *p.model
		if m.Calibrate(p.predWin, p.measWin) == nil {
			p.model = &m
		}
		p.predWin = p.predWin[:0]
		p.measWin = p.measWin[:0]
	}
}

// PredictSearchIO predicts the node accesses of a prob-range query without
// executing it — the admission-control input. ok is false when adaptive
// planning is off or no model has been built yet.
func (t *Tree) PredictSearchIO(rect geom.Rect, prob float64) (float64, bool) {
	pl := t.planner
	if pl == nil || rect.Dim() != t.dim {
		return 0, false
	}
	pl.mu.Lock()
	model := pl.model
	pl.mu.Unlock()
	if model == nil {
		return 0, false
	}
	sides := make([]float64, t.dim)
	for i := range sides {
		sides[i] = rect.Side(i)
	}
	pred := model.EstimateNodeAccesses(sides, prob, t.CatalogIndexFor(prob))
	if math.IsNaN(pred) || pred < 1 {
		pred = 1
	}
	return pred, true
}

// NNBound is a monotonically decreasing upper bound on the k-th smallest
// expected distance, shared across the shards of one scatter-gather NN
// query. Each shard publishes its own k-th best once its result list
// fills (the global k-th is never larger than any single shard's k-th),
// and every shard's best-first loop stops as soon as its frontier's lower
// bound exceeds the shared value — the remaining candidates are provably
// outside the merged top k. The zero value is ready to use (bound +Inf).
type NNBound struct {
	bits atomic.Uint64 // float64 bits; 0 = unset (+Inf)
}

// NewNNBound returns a fresh unset bound.
func NewNNBound() *NNBound { return &NNBound{} }

// Update lowers the bound to d when d improves it (CAS-min; d must be a
// non-negative distance). Concurrent updates keep the minimum.
func (b *NNBound) Update(d float64) {
	if math.IsInf(d, 1) || math.IsNaN(d) || d == 0 {
		// d == 0 would collide with the unset sentinel; an exact-zero k-th
		// distance only forgoes pruning, never correctness.
		return
	}
	bits := math.Float64bits(d)
	for {
		old := b.bits.Load()
		if old != 0 && math.Float64frombits(old) <= d {
			return
		}
		if b.bits.CompareAndSwap(old, bits) {
			return
		}
	}
}

// Load returns the current bound (+Inf until the first Update).
func (b *NNBound) Load() float64 {
	bits := b.bits.Load()
	if bits == 0 {
		return math.Inf(1)
	}
	return math.Float64frombits(bits)
}
