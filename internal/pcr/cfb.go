package pcr

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// CFB is a conservative functional box (Section 4.3): a rectangle-valued
// linear function of the catalog probability p,
//
//	box(p) = α − β·p    (per face),
//
// stored as per-dimension face coefficients. For cfb_out, box(p_j) contains
// the object's pcr(p_j) at every catalog value; for cfb_in it is contained
// in it. A CFB costs 4d floats, so the out/in pair costs 8d — the "16 (24)
// values in 2D (3D)" of the paper's Table 1 discussion.
type CFB struct {
	AlphaLo []float64
	BetaLo  []float64
	AlphaHi []float64
	BetaHi  []float64
}

// Dim returns the dimensionality.
func (c CFB) Dim() int { return len(c.AlphaLo) }

// Lo returns the low face position on dimension i at probability p.
func (c CFB) Lo(i int, p float64) float64 { return c.AlphaLo[i] - c.BetaLo[i]*p }

// Hi returns the high face position on dimension i at probability p.
func (c CFB) Hi(i int, p float64) float64 { return c.AlphaHi[i] - c.BetaHi[i]*p }

// Rect materializes box(p). Faces that cross due to floating-point noise
// collapse to their midpoint so the result is always a valid rectangle.
func (c CFB) Rect(p float64) geom.Rect {
	d := c.Dim()
	r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	c.RectInto(p, r)
	return r
}

// RectInto writes box(p) into dst's coordinates — Rect without the
// allocation.
func (c CFB) RectInto(p float64, dst geom.Rect) {
	for i := range c.AlphaLo {
		l, h := c.Lo(i, p), c.Hi(i, p)
		if l > h {
			mid := (l + h) / 2
			l, h = mid, mid
		}
		dst.Lo[i], dst.Hi[i] = l, h
	}
}

func newCFB(d int) CFB {
	return CFB{
		AlphaLo: make([]float64, d), BetaLo: make([]float64, d),
		AlphaHi: make([]float64, d), BetaHi: make([]float64, d),
	}
}

// FitOut fits cfb_out to the given PCRs: the margin-sum-minimal linear box
// family covering every pcr(p_j) (Section 4.4). Per dimension the problem
// decouples into one 2-variable linear program per face, each solved in
// closed form. The low face maximizes m·α − P·β = m·lo(p̄), p̄ = P/m, over
// the lines on or below every point (p_j, pcr_i−(p_j)): the supporting line
// of their lower convex hull at p̄. The high face is the supporting line of
// the upper hull of (p_j, pcr_i+(p_j)). The returned CFB satisfies
// Rect(p_j) ⊇ pcr(p_j) for every j.
func FitOut(pcrs PCRs) CFB {
	f := newFitter(pcrs)
	c := newCFB(f.d)
	for i := 0; i < f.d; i++ {
		lo, hi := f.faces(i)
		c.AlphaLo[i], c.BetaLo[i] = f.supportLine(lo, 1)
		c.AlphaHi[i], c.BetaHi[i] = f.supportLine(hi, -1)
		c.repairOut(pcrs, i)
	}
	return c
}

// repairOut nudges face i outward to absorb the fit's round-off so the
// covering invariant holds exactly.
func (c *CFB) repairOut(pcrs PCRs, i int) {
	for j := 0; j < pcrs.Cat.Size(); j++ {
		p := pcrs.Cat.Value(j)
		if lo := c.Lo(i, p); lo > pcrs.Boxes[j].Lo[i] {
			c.AlphaLo[i] -= lo - pcrs.Boxes[j].Lo[i]
		}
		if hi := c.Hi(i, p); hi < pcrs.Boxes[j].Hi[i] {
			c.AlphaHi[i] += pcrs.Boxes[j].Hi[i] - hi
		}
	}
}

// FitIn fits cfb_in: the margin-sum-maximal linear box family contained in
// every pcr(p_j), subject to the non-degeneracy coupling low ≤ high at every
// p_j (Inequality 14). Per dimension this is a 4-variable linear program,
// solved in closed form.
//
// Without the coupling the faces decouple into the supporting lines at p̄
// of the upper hull of the low faces and the lower hull of the high faces.
// When those two lines cross inside [p_1, p_m] the coupling binds. For
// nested PCRs (each inside the previous, as Compute builds them) it binds
// at p_m: hull lines of nondecreasing low faces never fall and those of
// nonincreasing high faces never rise, so the gap between the two is
// smallest at p_m. On typical pdf mixes this is the common case, since
// pcr(p_m) = pcr(0.5) collapses to a point or a sliver. The optimum then
// pivots both faces about a common point (p_m, c), and pivotFit finds the
// best c; its faces diverge towards p_1, so they cross nowhere. A face
// pair of no positive width falls back to the constant box pcr(p_m),
// which sits inside every PCR.
func FitIn(pcrs PCRs) CFB {
	f := newFitter(pcrs)
	c := newCFB(f.d)
	m := len(f.ps)
	p1, pm := f.ps[0], f.ps[m-1]
	for i := 0; i < f.d; i++ {
		lo, hi := f.faces(i)
		aLo, bLo := f.supportLine(lo, -1)
		aHi, bHi := f.supportLine(hi, 1)
		if aLo-bLo*p1 > aHi-bHi*p1 || aLo-bLo*pm > aHi-bHi*pm {
			if pc, s, t, ok := f.pivotFit(lo, hi); ok && s >= t {
				aLo, bLo = pc-s*pm, -s
				aHi, bHi = pc-t*pm, -t
			} else {
				aLo, bLo = lo[m-1], 0
				aHi, bHi = hi[m-1], 0
			}
		}
		c.AlphaLo[i], c.BetaLo[i] = aLo, bLo
		c.AlphaHi[i], c.BetaHi[i] = aHi, bHi
		c.repairIn(pcrs, i)
	}
	return c
}

// repairIn nudges face i inward to absorb the fit's round-off so the
// containment invariant holds exactly.
func (c *CFB) repairIn(pcrs PCRs, i int) {
	for j := 0; j < pcrs.Cat.Size(); j++ {
		p := pcrs.Cat.Value(j)
		if lo := c.Lo(i, p); lo < pcrs.Boxes[j].Lo[i] {
			c.AlphaLo[i] += pcrs.Boxes[j].Lo[i] - lo
		}
		if hi := c.Hi(i, p); hi > pcrs.Boxes[j].Hi[i] {
			c.AlphaHi[i] -= hi - pcrs.Boxes[j].Hi[i]
		}
	}
}

// fitter holds one object's CFB-fitting inputs: the catalog values p_j
// (strictly ascending), p̄ = P/m, and per-dimension face buffers.
type fitter struct {
	pcrs   PCRs
	d      int
	ps     []float64
	pbar   float64
	lo, hi []float64
	hull   []int
}

func newFitter(pcrs PCRs) *fitter {
	m := pcrs.Cat.Size()
	buf := make([]float64, 2*m)
	return &fitter{
		pcrs: pcrs,
		d:    pcrs.Boxes[0].Dim(),
		ps:   pcrs.Cat.values,
		pbar: pcrs.Cat.Sum() / float64(m),
		lo:   buf[:m],
		hi:   buf[m:],
		hull: make([]int, 0, m),
	}
}

// faces returns the PCRs' low and high faces on dimension i, indexed by j.
func (f *fitter) faces(i int) (lo, hi []float64) {
	for j, b := range f.pcrs.Boxes {
		f.lo[j], f.hi[j] = b.Lo[i], b.Hi[i]
	}
	return f.lo, f.hi
}

// supportLine returns the line α − β·p through the edge spanning p̄ of the
// lower convex hull of the points (p_j, sign·y_j), mapped back by sign: for
// sign = 1 the highest line at p̄ on or below every (p_j, y_j), for
// sign = −1 the lowest on or above. Where p̄ is a hull vertex, both
// adjacent edges are optimal and the left one is taken.
func (f *fitter) supportLine(y []float64, sign float64) (alpha, beta float64) {
	ps := f.ps
	hull := f.hull[:0]
	for j := range ps {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Keep b only if a → b → j turns counter-clockwise.
			if (ps[b]-ps[a])*(sign*y[j]-sign*y[a])-(sign*y[b]-sign*y[a])*(ps[j]-ps[a]) > 0 {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, j)
	}
	k := 1
	for k < len(hull)-1 && ps[hull[k]] < f.pbar {
		k++
	}
	a, b := hull[k-1], hull[k]
	s := (y[b] - y[a]) / (ps[b] - ps[a])
	// y_a + s·(p − p_a) = (y_a − s·p_a) + s·p.
	return y[a] - s*ps[a], -s
}

// pivotFit maximizes the in-faces' width at p̄ over face pairs through a
// common point (p_m, c): low face c + s·(p − p_m) ≥ lo_j and high face
// c + t·(p − p_m) ≤ hi_j for j < m, and lo_m ≤ c ≤ hi_m. For a fixed c the
// best slopes are s(c) = min_j (c − lo_j)/(p_m − p_j) and
// t(c) = max_j (c − hi_j)/(p_m − p_j), and the width (s − t)·(p_m − p̄) is
// concave and piecewise linear in c, so its maximum lies at lo_m, at hi_m,
// or where the minimizing (maximizing) j of s (t) changes. ok is false when
// no c exists (lo_m > hi_m).
func (f *fitter) pivotFit(lo, hi []float64) (c, s, t float64, ok bool) {
	m := len(f.ps)
	cLo, cHi := lo[m-1], hi[m-1]
	if cLo > cHi {
		return 0, 0, 0, false
	}
	pm := f.ps[m-1]
	slopes := func(c float64) (s, t float64) {
		s, t = math.Inf(1), math.Inf(-1)
		for j := 0; j < m-1; j++ {
			dp := pm - f.ps[j]
			s = math.Min(s, (c-lo[j])/dp)
			t = math.Max(t, (c-hi[j])/dp)
		}
		return s, t
	}
	c = cLo
	s, t = slopes(c)
	try := func(x float64) {
		if x > cLo && x < cHi {
			if xs, xt := slopes(x); xs-xt > s-t {
				c, s, t = x, xs, xt
			}
		}
	}
	if cLo == cHi {
		return c, s, t, true
	}
	if xs, xt := slopes(cHi); xs-xt > s-t {
		c, s, t = cHi, xs, xt
	}
	// Breakpoints: (x − y_j)/Δ_j = (x − y_k)/Δ_k with Δ = p_m − p.
	for j := 0; j < m-1; j++ {
		dj := pm - f.ps[j]
		for k := j + 1; k < m-1; k++ {
			dk := pm - f.ps[k]
			try((lo[j]*dk - lo[k]*dj) / (dk - dj))
			try((hi[j]*dk - hi[k]*dj) / (dk - dj))
		}
	}
	return c, s, t, true
}

// Validate checks the conservative invariants of an out/in CFB pair against
// the PCRs they were fitted to; it returns a descriptive error on the first
// violation beyond floating-point tolerance. Used by tests and by the
// utreectl verifier.
func Validate(out, in CFB, pcrs PCRs) error {
	for j := 0; j < pcrs.Cat.Size(); j++ {
		p := pcrs.Cat.Value(j)
		ob := out.Rect(p)
		ib := in.Rect(p)
		box := pcrs.Boxes[j]
		for i := 0; i < box.Dim(); i++ {
			tol := 1e-9 * (1 + absf(box.Lo[i]) + absf(box.Hi[i]))
			if ob.Lo[i] > box.Lo[i]+tol || ob.Hi[i] < box.Hi[i]-tol {
				return fmt.Errorf("pcr: cfb_out(%g) = %v does not contain pcr = %v", p, ob, box)
			}
			if ib.Lo[i] < box.Lo[i]-tol || ib.Hi[i] > box.Hi[i]+tol {
				return fmt.Errorf("pcr: cfb_in(%g) = %v not inside pcr = %v", p, ib, box)
			}
		}
	}
	return nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
