package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pcr"
	"repro/internal/rstar"
)

// Reference descent: the straightforward allocating form of chooseSubtree
// and chooseSplit — every metric summed per child over freshly
// interpolated rectangles with geom's own Overlap/Area. The writer's
// scratch-based versions must make exactly the same choices.

func refBoundary(t *Tree, e *entry, leaf bool) []geom.Rect {
	if !leaf {
		return e.boxes
	}
	if t.kind == UTree {
		return []geom.Rect{e.out.Rect(0), e.out.Rect(t.cat.Max())}
	}
	return e.pcrs
}

func refCloneBoxes(b []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(b))
	for i := range b {
		out[i] = b[i].Clone()
	}
	return out
}

func refGrownBoxes(parent, eBoxes []geom.Rect) []geom.Rect {
	g := refCloneBoxes(parent)
	unionBoundaries(g, eBoxes)
	return g
}

func refSummedArea(t *Tree, boxes []geom.Rect) float64 {
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(boxes, j).Area()
	}
	return s
}

func refSummedEnlargement(t *Tree, old, grown []geom.Rect) float64 {
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(grown, j).Area() - t.boxAt(old, j).Area()
	}
	return s
}

func refChooseSubtree(t *Tree, n *node, eBoxes []geom.Rect) int {
	m := t.cat.Size()
	best := 0
	if n.level == 1 {
		bestOv, bestEnl, bestArea := inf(), inf(), inf()
		for i := range n.entries {
			grown := refGrownBoxes(n.entries[i].boxes, eBoxes)
			var dOv float64
			for j := 0; j < m; j++ {
				gj := t.boxAt(grown, j)
				oj := t.boxAt(n.entries[i].boxes, j)
				for k := range n.entries {
					if k == i {
						continue
					}
					other := t.boxAt(n.entries[k].boxes, j)
					dOv += gj.Overlap(other) - oj.Overlap(other)
				}
			}
			enl := refSummedEnlargement(t, n.entries[i].boxes, grown)
			area := refSummedArea(t, n.entries[i].boxes)
			if dOv < bestOv || (dOv == bestOv && enl < bestEnl) ||
				(dOv == bestOv && enl == bestEnl && area < bestArea) {
				bestOv, bestEnl, bestArea, best = dOv, enl, area, i
			}
		}
		return best
	}
	bestEnl, bestArea := inf(), inf()
	for i := range n.entries {
		grown := refGrownBoxes(n.entries[i].boxes, eBoxes)
		enl := refSummedEnlargement(t, n.entries[i].boxes, grown)
		area := refSummedArea(t, n.entries[i].boxes)
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			bestEnl, bestArea, best = enl, area, i
		}
	}
	return best
}

func refChooseSplit(t *Tree, n *node, minFill int) (left, right []int) {
	boundaries := make([][]geom.Rect, len(n.entries))
	for i := range n.entries {
		boundaries[i] = refBoundary(t, &n.entries[i], n.leaf())
	}
	rectsAt := func(j int) []geom.Rect {
		rects := make([]geom.Rect, len(boundaries))
		for i := range boundaries {
			rects[i] = t.boxAt(boundaries[i], j)
		}
		return rects
	}
	switch t.splitStrategy {
	case SplitAtZero:
		return rstar.SplitGroups(rectsAt(0), minFill)
	case SplitSummed:
		bestScore := inf()
		for j := 0; j < t.cat.Size(); j++ {
			li, ri := rstar.SplitGroups(rectsAt(j), minFill)
			score := refPartitionOverlap(t, boundaries, li, ri)
			if score < bestScore {
				bestScore = score
				left, right = li, ri
			}
		}
		return left, right
	default:
		return rstar.SplitGroups(rectsAt(t.cat.MedianIndex()), minFill)
	}
}

func refPartitionOverlap(t *Tree, boundaries [][]geom.Rect, li, ri []int) float64 {
	groupBoxes := func(idx []int) []geom.Rect {
		g := refCloneBoxes(boundaries[idx[0]])
		for _, i := range idx[1:] {
			unionBoundaries(g, boundaries[i])
		}
		return g
	}
	lb := groupBoxes(li)
	rb := groupBoxes(ri)
	var s float64
	for j := 0; j < t.cat.Size(); j++ {
		s += t.boxAt(lb, j).Overlap(t.boxAt(rb, j))
	}
	return s
}

// randNested returns nb boxes in a [0, span]^d domain, each inside the
// previous one (the shape of a boundary set).
func randNested(rng *rand.Rand, nb, d int, span float64) []geom.Rect {
	boxes := make([]geom.Rect, nb)
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for i := 0; i < d; i++ {
		lo[i] = rng.Float64() * span
		hi[i] = lo[i] + rng.Float64()*span/3
	}
	for j := range boxes {
		if j > 0 {
			for i := 0; i < d; i++ {
				w := hi[i] - lo[i]
				lo[i] += rng.Float64() * w / 4
				hi[i] -= rng.Float64() * w / 4
			}
		}
		boxes[j] = geom.Rect{Lo: lo.Clone(), Hi: hi.Clone()}
	}
	return boxes
}

// randLeafEntry builds a leaf entry with fixed, randomly drawn geometry: a
// U-tree cfb_out spanning two nested boxes (occasionally with faces that
// cross, which CFB.Rect collapses), or a U-PCR list of m nested boxes.
func randLeafEntry(rng *rand.Rand, t *Tree, span float64) entry {
	if t.kind == UPCR {
		return entry{pcrs: randNested(rng, t.cat.Size(), t.dim, span)}
	}
	b := randNested(rng, 2, t.dim, span)
	pm := t.cat.Max()
	out := pcr.CFB{
		AlphaLo: b[0].Lo.Clone(), BetaLo: make([]float64, t.dim),
		AlphaHi: b[0].Hi.Clone(), BetaHi: make([]float64, t.dim),
	}
	for i := 0; i < t.dim; i++ {
		out.BetaLo[i] = (b[0].Lo[i] - b[1].Lo[i]) / pm
		out.BetaHi[i] = (b[0].Hi[i] - b[1].Hi[i]) / pm
		if rng.Intn(8) == 0 {
			out.BetaLo[i] = -3 * (b[0].Hi[i] - b[0].Lo[i]) / pm
		}
	}
	return entry{out: out}
}

// randNode builds a node at the given level holding n entries, a few of
// them exact duplicates so that the tie-breaks are exercised.
func randNode(rng *rand.Rand, t *Tree, level, n int, span float64) *node {
	nd := &node{level: level}
	for len(nd.entries) < n {
		if len(nd.entries) > 0 && rng.Intn(10) == 0 {
			dup := nd.entries[rng.Intn(len(nd.entries))]
			if level > 0 {
				dup.boxes = refCloneBoxes(dup.boxes)
			}
			nd.entries = append(nd.entries, dup)
			continue
		}
		if level == 0 {
			nd.entries = append(nd.entries, randLeafEntry(rng, t, span))
		} else {
			nd.entries = append(nd.entries, entry{boxes: randNested(rng, t.boundaryLen(), t.dim, span)})
		}
	}
	return nd
}

// TestDescentMatchesReference is the differential test of the writer's
// allocation-free descent: on random nodes of both index kinds, at level 1
// (summed overlap enlargement) and above (summed area enlargement), in 2
// and 3 dimensions, chooseSubtree must pick the reference's child and
// chooseSplit (every split strategy) the reference's groups.
func TestDescentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, kind := range []Kind{UTree, UPCR} {
		for _, dim := range []int{2, 3} {
			for _, strategy := range []SplitStrategy{SplitMedian, SplitAtZero, SplitSummed} {
				tr, err := New(Options{Dim: dim, Kind: kind, CatalogSize: 5 + rng.Intn(6), SplitStrategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 60; trial++ {
					span := 100.0
					if trial%3 == 0 {
						span = 1000 // sparser: many disjoint pairs
					}
					for _, level := range []int{1, 2} {
						n := randNode(rng, tr, level, 2+rng.Intn(tr.innerCap-1), span)
						var e entry
						if rng.Intn(3) == 0 {
							e = entry{boxes: randNested(rng, tr.boundaryLen(), dim, span)}
						} else {
							e = randLeafEntry(rng, tr, span)
						}
						eBoxes := refBoundary(tr, &e, e.boxes == nil)
						if got, want := tr.chooseSubtree(n, eBoxes), refChooseSubtree(tr, n, eBoxes); got != want {
							t.Fatalf("%v d=%d level %d: chooseSubtree = %d, reference %d", kind, dim, level, got, want)
						}
					}
					for _, level := range []int{0, 1} {
						capacity, minFill := tr.leafCap, tr.minLeaf
						if level > 0 {
							capacity, minFill = tr.innerCap, tr.minInner
						}
						n := randNode(rng, tr, level, capacity+1, span)
						gl, gr := tr.chooseSplit(n, minFill)
						wl, wr := refChooseSplit(tr, n, minFill)
						if !reflect.DeepEqual(gl, wl) || !reflect.DeepEqual(gr, wr) {
							t.Fatalf("%v d=%d level %d strategy %d: chooseSplit = %v|%v, reference %v|%v",
								kind, dim, level, strategy, gl, gr, wl, wr)
						}
					}
				}
				tr.StopBackgroundReclaim()
			}
		}
	}
}
