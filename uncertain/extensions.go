package uncertain

import (
	"context"

	"repro/internal/core"
	"repro/internal/updf"
)

// This file exposes the library's extensions beyond the paper's prob-range
// query: polygon and mixture pdfs ("uncertainty regions of any shapes"),
// expected-distance nearest neighbors, STR bulk loading and the analytical
// cost model (the paper's stated future work, Section 7).

// UniformPolygon is a uniform pdf over a 2D convex polygon (the convex hull
// of the given points is used).
func UniformPolygon(vertices []Point) PDF {
	vs := make([]Point, len(vertices))
	copy(vs, vertices)
	return updf.NewUniformPolygon(vs)
}

// MixturePDF is a weighted mixture of pdfs — multi-modal uncertainty.
// Weights are normalized internally.
func MixturePDF(components []PDF, weights []float64) PDF {
	return updf.NewMixture(components, weights)
}

// Neighbor is one nearest-neighbor result.
type Neighbor = core.NNResult

// NNStats reports nearest-neighbor traversal cost.
type NNStats = core.NNStats

// NearestNeighbors returns the k objects with the smallest expected
// distance E[dist(o, q)] to the query point, ascending. It runs against a
// pinned snapshot and honors ctx and the per-query options under the same
// contract as Search (WithLimit caps k; a cancelled traversal returns the
// neighbors found so far with ctx.Err()).
func (t *Tree) NearestNeighbors(ctx context.Context, q Point, k int, opts ...QueryOption) ([]Neighbor, NNStats, error) {
	snap := t.inner.Snapshot()
	defer snap.Close()
	return snap.NearestNeighbors(ctx, q, k, resolveOptions(opts))
}

// BulkLoad builds the index bottom-up (STR packing) from a batch of
// objects; the tree must be empty. Far faster than repeated Insert and
// produces a tighter tree; the index stays fully dynamic afterwards. The
// whole load commits as a single epoch: snapshots see either the empty
// tree or the complete load, never a partial one.
func (t *Tree) BulkLoad(objects map[int64]PDF) error {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	if err := t.commitPending(); err != nil {
		return err
	}
	objs := make([]core.Object, 0, len(objects))
	for id, p := range objects {
		objs = append(objs, core.Object{ID: id, PDF: p})
	}
	if err := t.inner.BulkLoad(objs); err != nil {
		return t.rollback(err)
	}
	if err := t.commit(); err != nil {
		return t.rollback(err)
	}
	for id, p := range objects {
		t.pdfs[id] = newFlatMBR(p.MBR())
	}
	return nil
}

// CostModel predicts query node accesses without executing queries; see
// Tree.BuildCostModel.
type CostModel = core.CostModel

// BuildCostModel summarizes the tree for analytical cost prediction over
// the given data domain.
func (t *Tree) BuildCostModel(domain Rect) (*CostModel, error) {
	if t.lockWriter() {
		defer t.mu.Unlock()
	}
	return t.inner.BuildCostModel(domain)
}

// CatalogIndexFor maps a probability threshold to the catalog index used by
// the query descent (input to CostModel.EstimateNodeAccesses).
func (t *Tree) CatalogIndexFor(pq float64) int {
	return t.inner.CatalogIndexFor(pq)
}

// PlannerInfo is the adaptive planner's observability snapshot: whether
// planning is on, how many queries it decided, the lifetime predicted and
// measured node-access sums (their ratio is the live prediction error),
// the model's current calibration factor, and how often the model was
// rebuilt at commit.
type PlannerInfo = core.PlannerInfo

// PlannerInfo reports the adaptive planner's diagnostics (all zero
// without Config.AdaptivePlanning).
func (t *Tree) PlannerInfo() PlannerInfo { return t.inner.PlannerInfo() }

// PredictSearchIO predicts the node accesses of a Search with the given
// rectangle and threshold without executing it — the cost model's query
// surface, also used by the engine's admission control. ok is false when
// adaptive planning is off or no model has been built yet (tree too
// small or not committed since reaching modeling size).
func (t *Tree) PredictSearchIO(rect Rect, prob float64) (float64, bool) {
	return t.inner.PredictSearchIO(rect, prob)
}
