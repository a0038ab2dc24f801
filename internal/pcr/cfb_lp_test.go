package pcr

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// The linear-programming formulation of CFB fitting (Section 4.4), solved
// with the simplex of internal/lp. It is the oracle the closed forms of
// FitOut and FitIn are checked against: same objective, same constraints.

// fitOutLP fits cfb_out face by face as two 2-variable LPs; ok is false
// when the simplex failed on some face (which then takes the constant box).
func fitOutLP(pcrs PCRs) (c CFB, ok bool) {
	cat := pcrs.Cat
	m := cat.Size()
	d := pcrs.Boxes[0].Dim()
	P := cat.Sum()
	c, ok = newCFB(d), true
	for i := 0; i < d; i++ {
		// Low face: maximize m·α − P·β subject to α − β·p_j ≤ pcr_i−(p_j).
		aLo := make([][]float64, m)
		bLo := make([]float64, m)
		for j := 0; j < m; j++ {
			aLo[j] = []float64{1, -cat.Value(j)}
			bLo[j] = pcrs.Boxes[j].Lo[i]
		}
		xLo, _, errLo := lp.Solve(lp.Problem{C: []float64{float64(m), -P}, A: aLo, B: bLo})

		// High face: minimize m·α − P·β subject to α − β·p_j ≥ pcr_i+(p_j),
		// i.e. maximize −m·α + P·β subject to −α + β·p_j ≤ −pcr_i+(p_j).
		aHi := make([][]float64, m)
		bHi := make([]float64, m)
		for j := 0; j < m; j++ {
			aHi[j] = []float64{-1, cat.Value(j)}
			bHi[j] = -pcrs.Boxes[j].Hi[i]
		}
		xHi, _, errHi := lp.Solve(lp.Problem{C: []float64{-float64(m), P}, A: aHi, B: bHi})

		if errLo == nil && errHi == nil {
			c.AlphaLo[i], c.BetaLo[i] = xLo[0], xLo[1]
			c.AlphaHi[i], c.BetaHi[i] = xHi[0], xHi[1]
		} else {
			ok = false
			c.AlphaLo[i], c.BetaLo[i] = pcrs.Boxes[0].Lo[i], 0
			c.AlphaHi[i], c.BetaHi[i] = pcrs.Boxes[0].Hi[i], 0
		}
		c.repairOut(pcrs, i)
	}
	return c, ok
}

// fitInLP fits cfb_in face pair by face pair as one 4-variable LP with the
// Inequality 14 coupling; ok as for fitOutLP.
func fitInLP(pcrs PCRs) (c CFB, ok bool) {
	cat := pcrs.Cat
	m := cat.Size()
	d := pcrs.Boxes[0].Dim()
	P := cat.Sum()
	c, ok = newCFB(d), true
	for i := 0; i < d; i++ {
		// Variables x = (αlo, βlo, αhi, βhi).
		// maximize (m·αhi − P·βhi) − (m·αlo − P·βlo)
		// s.t.  −αlo + βlo·p_j ≤ −pcr_i−(p_j)       (inner ≥ pcr low face)
		//        αhi − βhi·p_j ≤  pcr_i+(p_j)       (inner ≤ pcr high face)
		//        αlo − βlo·p_j − αhi + βhi·p_j ≤ 0  (low ≤ high, Ineq. 14)
		a := make([][]float64, 0, 3*m)
		b := make([]float64, 0, 3*m)
		for j := 0; j < m; j++ {
			pj := cat.Value(j)
			a = append(a, []float64{-1, pj, 0, 0})
			b = append(b, -pcrs.Boxes[j].Lo[i])
			a = append(a, []float64{0, 0, 1, -pj})
			b = append(b, pcrs.Boxes[j].Hi[i])
			a = append(a, []float64{1, -pj, -1, pj})
			b = append(b, 0)
		}
		obj := []float64{-float64(m), P, float64(m), -P}
		x, _, err := lp.Solve(lp.Problem{C: obj, A: a, B: b})
		if err == nil {
			c.AlphaLo[i], c.BetaLo[i] = x[0], x[1]
			c.AlphaHi[i], c.BetaHi[i] = x[2], x[3]
		} else {
			ok = false
			last := pcrs.Boxes[m-1]
			c.AlphaLo[i], c.BetaLo[i] = last.Lo[i], 0
			c.AlphaHi[i], c.BetaHi[i] = last.Hi[i], 0
		}
		c.repairIn(pcrs, i)
	}
	return c, ok
}

// faceValues returns, for dimension i, the objective terms of Formula 11
// divided by m: the low and high faces' positions at p̄ = P/m.
func faceValues(c CFB, cat Catalog, i int) (lo, hi float64) {
	pbar := cat.Sum() / float64(cat.Size())
	return c.Lo(i, pbar), c.Hi(i, pbar)
}

// objectiveTol is Validate's tolerance for dimension i of pcrs, taken over
// the largest face magnitudes.
func objectiveTol(pcrs PCRs, i int) float64 {
	var lo, hi float64
	for _, b := range pcrs.Boxes {
		lo = math.Max(lo, math.Abs(b.Lo[i]))
		hi = math.Max(hi, math.Abs(b.Hi[i]))
	}
	return 1e-9 * (1 + lo + hi)
}

// checkFitAgainstLP asserts that FitOut and FitIn are feasible — Validate
// holds and the in-faces never cross at a catalog value, within Validate's
// tolerance — and reach the simplex oracle's objective on every face within
// that tolerance. The check is one-sided: the simplex pivots with a 1e-9
// tolerance, which on nearly collapsed PCRs can leave it short of the
// optimum, and a feasible fit that beats it is no error. The same tolerance
// can leave the simplex's in-faces crossing slightly, which buys it width
// no feasible fit has; the in-face bound is widened by that much. It reports whether the Inequality 14 coupling binds on
// each dimension (the decoupled in-faces cross inside [p_1, p_m]).
func checkFitAgainstLP(t *testing.T, pcrs PCRs) (coupled []bool) {
	t.Helper()
	out, in := FitOut(pcrs), FitIn(pcrs)
	if err := Validate(out, in, pcrs); err != nil {
		t.Fatalf("closed form: %v", err)
	}
	outLP, okOut := fitOutLP(pcrs)
	inLP, okIn := fitInLP(pcrs)
	f := newFitter(pcrs)
	p1, pm := pcrs.Cat.Value(0), pcrs.Cat.Max()
	gap := pm - p1
	for j := 1; j < pcrs.Cat.Size(); j++ {
		gap = math.Min(gap, pcrs.Cat.Value(j)-pcrs.Cat.Value(j-1))
	}
	lev := (pm - p1) / gap
	for i := 0; i < pcrs.Boxes[0].Dim(); i++ {
		tol := objectiveTol(pcrs, i)
		for j := 0; j < pcrs.Cat.Size(); j++ {
			p := pcrs.Cat.Value(j)
			if in.Lo(i, p) > in.Hi(i, p)+tol {
				t.Fatalf("dim %d: cfb_in faces cross at p_%d: %.17g > %.17g", i, j, in.Lo(i, p), in.Hi(i, p))
			}
		}
		lo, hi := faceValues(out, pcrs.Cat, i)
		if okOut {
			loLP, hiLP := faceValues(outLP, pcrs.Cat, i)
			if lo < loLP-tol || hi > hiLP+tol {
				t.Fatalf("dim %d: cfb_out faces at p̄ (%.17g, %.17g), simplex (%.17g, %.17g), tol %g\n%v",
					i, lo, hi, loLP, hiLP, tol, pcrs.Boxes)
			}
		}
		ilo, ihi := faceValues(in, pcrs.Cat, i)
		if okIn {
			iloLP, ihiLP := faceValues(inLP, pcrs.Cat, i)
			// The simplex's in-faces may cross by up to its pivot
			// tolerance (repairIn restores containment, not the
			// coupling), and each face moved by v at one catalog value
			// moves by up to v·lev at p̄ while it pivots about another.
			var cross float64
			for j := 0; j < pcrs.Cat.Size(); j++ {
				p := pcrs.Cat.Value(j)
				cross = math.Max(cross, inLP.Lo(i, p)-inLP.Hi(i, p))
			}
			if allow := tol + 2*lev*cross; ihi-ilo < ihiLP-iloLP-allow {
				t.Fatalf("dim %d: cfb_in width at p̄ %.17g, simplex %.17g (faces crossing by %g), allowed %g\n%v",
					i, ihi-ilo, ihiLP-iloLP, cross, allow, pcrs.Boxes)
			}
		}
		flo, fhi := f.faces(i)
		aLo, bLo := f.supportLine(flo, -1)
		aHi, bHi := f.supportLine(fhi, 1)
		coupled = append(coupled, aLo-bLo*p1 > aHi-bHi*p1 || aLo-bLo*pm > aHi-bHi*pm)
	}
	return coupled
}
