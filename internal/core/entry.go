package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/pcr"
)

// pcrCFB aliases pcr.CFB for the serialization helpers.
type pcrCFB = pcr.CFB

// Kind selects the index variant.
type Kind int

const (
	// UTree stores CFBs in leaves and two boundary rectangles (MBR⊥, MBR⊤)
	// in intermediate entries — the paper's proposal.
	UTree Kind = iota
	// UPCR stores all m PCRs in leaves and m bounding rectangles in
	// intermediate entries — the comparison structure of Section 6.
	UPCR
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == UPCR {
		return "U-PCR"
	}
	return "U-tree"
}

// entry is the in-memory form of a node entry for either kind and either
// node level.
//
// Leaf entries: id, addr, mbr are always set; a U-tree leaf carries out/in
// CFBs, a U-PCR leaf carries pcrBoxes (length m, pcrBoxes[0] == mbr).
//
// Intermediate entries: child is set and boxes carries the bounding
// geometry — length 2 for the U-tree ([MBR⊥, MBR⊤], interpolated linearly
// in p) and length m for U-PCR (one bounding rectangle per catalog value).
type entry struct {
	// Leaf fields.
	id   int64
	addr pagefile.DataAddr
	mbr  geom.Rect
	out  pcr.CFB
	in   pcr.CFB
	pcrs []geom.Rect

	// Intermediate fields.
	child pagefile.PageID
	boxes []geom.Rect
}

// boundary returns the entry's representative boxes used to build parent
// entries: for U-tree entries 2 boxes (at p_1 and p_m), for U-PCR entries m
// boxes (one per catalog value). A U-tree leaf's two boxes are evaluated
// from its cfb_out into scratch (two rectangles), so the result is valid
// only until scratch is next written.
func (t *Tree) boundary(e *entry, leaf bool, scratch []geom.Rect) []geom.Rect {
	if !leaf {
		return e.boxes
	}
	if t.kind == UTree {
		e.out.RectInto(0, scratch[0])
		e.out.RectInto(t.cat.Max(), scratch[1])
		return scratch[:2]
	}
	return e.pcrs
}

// boundaryLen is the number of boxes boundary returns: 2 for the U-tree,
// m for U-PCR.
func (t *Tree) boundaryLen() int {
	if t.kind == UTree {
		return 2
	}
	return t.cat.Size()
}

// boxAt evaluates an entry's bounding rectangle at catalog index j. For
// 2-box (U-tree) geometry this interpolates the linear e.MBR(p) function of
// Equation 15 (p_1 = 0 makes α = MBR⊥ and β = (MBR⊥−MBR⊤)/p_m); for m-box
// geometry it returns the stored rectangle.
func (t *Tree) boxAt(boxes []geom.Rect, j int) geom.Rect {
	if len(boxes) == t.cat.Size() {
		return boxes[j]
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	return interpRect(boxes[0], boxes[1], f)
}

// boxIntersectsAt reports whether r intersects boxAt(boxes, j) without
// materializing the interpolated rectangle — the allocation-free form of
// r.Intersects(t.boxAt(boxes, j)) used by the descent's Observation 4
// pruning. The interpolation arithmetic is written exactly as interpRect's
// and the comparison exactly as geom.Rect.Intersects', so the outcome is
// bit-identical to the allocating composition.
func (t *Tree) boxIntersectsAt(r geom.Rect, boxes []geom.Rect, j int) bool {
	if len(boxes) == t.cat.Size() {
		return r.Intersects(boxes[j])
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	a, b := boxes[0], boxes[1]
	for i := range r.Lo {
		lo := a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		hi := a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
		if r.Hi[i] < lo || hi < r.Lo[i] {
			return false
		}
	}
	return true
}

// minDistAt is MINDIST(q, boxAt(boxes, j)) without materializing the
// interpolated rectangle — the allocation-free form of
// minDist(q, t.boxAt(boxes, j)) used by the NN frontier. Same
// bit-identical-arithmetic contract as boxIntersectsAt.
func (t *Tree) minDistAt(q geom.Point, boxes []geom.Rect, j int) float64 {
	if len(boxes) == t.cat.Size() {
		return minDist(q, boxes[j])
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	a, b := boxes[0], boxes[1]
	var s float64
	for i := range q {
		lo := a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		hi := a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
		var d float64
		if q[i] < lo {
			d = lo - q[i]
		} else if q[i] > hi {
			d = q[i] - hi
		}
		s += d * d
	}
	return math.Sqrt(s)
}

// interpRect linearly interpolates each face: (1−f)·a + f·b.
func interpRect(a, b geom.Rect, f float64) geom.Rect {
	d := a.Dim()
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		lo[i] = a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		hi[i] = a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// boxAtInto writes boxAt(boxes, j) into dst's coordinates — the
// allocation-free form used by the insert descent and the split, with
// interpRect's arithmetic (the boxIntersectsAt contract), so every penalty
// computed from dst is bit-identical to one computed from boxAt.
func (t *Tree) boxAtInto(dst geom.Rect, boxes []geom.Rect, j int) {
	if len(boxes) == t.cat.Size() {
		copy(dst.Lo, boxes[j].Lo)
		copy(dst.Hi, boxes[j].Hi)
		return
	}
	if len(boxes) != 2 {
		panic(fmt.Sprintf("core: entry with %d boxes (want 2 or %d)", len(boxes), t.cat.Size()))
	}
	f := t.cat.Value(j) / t.cat.Max()
	a, b := boxes[0], boxes[1]
	for i := range dst.Lo {
		dst.Lo[i] = a.Lo[i] + (b.Lo[i]-a.Lo[i])*f
		dst.Hi[i] = a.Hi[i] + (b.Hi[i]-a.Hi[i])*f
	}
}

// overlap is geom.Rect.Overlap with its math.Max/math.Min calls written as
// compares, which the compiler inlines. On the NaN-free coordinates of a
// tree the two can differ only in the sign of a zero max or min, which
// neither the lo ≥ hi test nor hi − lo can see, so the result is
// bit-identical.
func overlap(r, s geom.Rect) float64 {
	v := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if s.Lo[i] > lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] < hi {
			hi = s.Hi[i]
		}
		if lo >= hi {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// centerDist is geom.Rect.CenterDist without materializing the centers
// (same arithmetic).
func centerDist(r, s geom.Rect) float64 {
	var sum float64
	for i := range r.Lo {
		d := (r.Lo[i]+r.Hi[i])/2 - (s.Lo[i]+s.Hi[i])/2
		sum += d * d
	}
	return math.Sqrt(sum)
}

// unionBoundaries unions per-slot boxes of two boundary sets (same length).
func unionBoundaries(dst, src []geom.Rect) {
	for i := range dst {
		dst[i].UnionInPlace(src[i])
	}
}

// copyBoxes copies the coordinates of src into dst (same shape).
func copyBoxes(dst, src []geom.Rect) {
	for i := range dst {
		copy(dst[i].Lo, src[i].Lo)
		copy(dst[i].Hi, src[i].Hi)
	}
}

// newBoxes allocates n rectangles of dimension d over one backing array.
func newBoxes(n, d int) []geom.Rect {
	vals := make([]float64, 2*d*n)
	rs := make([]geom.Rect, n)
	for i := range rs {
		v := vals[2*d*i : 2*d*(i+1) : 2*d*(i+1)]
		rs[i] = geom.Rect{Lo: v[:d:d], Hi: v[d:]}
	}
	return rs
}

// rectBuf is a reusable set of scratch rectangles.
type rectBuf struct{ rs []geom.Rect }

// get returns n rectangles of dimension d, reusing the buffer's storage
// when it is large enough (requests are bounded by a node's fanout, so it
// stops growing early). Their coordinates are whatever the last user left;
// the previous result is overwritten.
func (b *rectBuf) get(n, d int) []geom.Rect {
	if len(b.rs) < n || (n > 0 && len(b.rs[0].Lo) != d) {
		b.rs = newBoxes(n, d)
	}
	return b.rs[:n]
}

// writeScratch is the writer's reusable working memory for the insert
// descent, forced reinsertion and splits, so that placing an entry
// allocates nothing for its geometry. The mutators run on one goroutine;
// nothing in it outlives the call that filled it.
type writeScratch struct {
	bnd    rectBuf // one entry's boundary (choosePath, refreshEntry, forceReinsert)
	node   rectBuf // a node's boundary (forceReinsert)
	grown  rectBuf // grown child boundaries (chooseSubtree), split groups (partitionOverlap)
	at     rectBuf // every entry's box at one catalog value
	one    rectBuf // one or two boxes at one catalog value
	bnds   rectBuf // the U-tree leaf entries' boundaries (chooseSplit)
	sets   [][]geom.Rect
	floats []float64
	cands  []reinsertCand
	marks  []bool
}

// floatsZero returns n zeroed scratch floats.
func (w *writeScratch) floatsZero(n int) []float64 {
	if cap(w.floats) < n {
		w.floats = make([]float64, n)
	}
	f := w.floats[:n]
	clear(f)
	return f
}

// entrySizes returns the on-page sizes (bytes) of leaf and intermediate
// entries for the given kind, dimensionality and catalog size.
func entrySizes(kind Kind, dim, m int) (leaf, inner int) {
	rect := 16 * dim // 2d float64
	switch kind {
	case UTree:
		// id(8) + addr(8) + MBR + cfb_out(4d) + cfb_in(4d).
		leaf = 16 + rect + 64*dim
		// child(8) + MBR⊥ + MBR⊤.
		inner = 8 + 2*rect
	case UPCR:
		// id(8) + addr(8) + m PCR boxes (pcr(0) doubles as the MBR).
		leaf = 16 + m*rect
		// child(8) + m bounding boxes.
		inner = 8 + m*rect
	}
	return leaf, inner
}

// nodeHeader is the per-page header: level(1) + pad(1) + count(2) + pad(4).
const nodeHeader = 8

// capacities derives node fan-outs from the page and entry sizes.
func capacities(kind Kind, dim, m int) (leafCap, innerCap int) {
	leafSz, innerSz := entrySizes(kind, dim, m)
	leafCap = (pagefile.PageSize - nodeHeader) / leafSz
	innerCap = (pagefile.PageSize - nodeHeader) / innerSz
	return leafCap, innerCap
}
