package main

import (
	"fmt"
	"math"

	"repro/internal/updf"
	"repro/uncertain"
)

// The answer oracle brute-forces each sampled query over the live object
// set with updf.ExactProber. A returned object must have exact probability
// at least pq−δ, and every object at pq+δ or above must be returned, where
// δ covers the index's refinement error.

// oracleAlpha is the chance a correct Monte-Carlo estimate falls outside
// its band, per object and query.
const oracleAlpha = 1e-9

// exactSlack absorbs quadrature and quantile-bisection tolerance.
const exactSlack = 1e-3

// band returns δ for pdf refined with n Monte-Carlo samples, or with exact
// refinement. The index estimates p as Σw·1[x∈r]/Σw over n points drawn
// uniformly from the region, with w the density over its mean, so
// w ∈ [0, M]. By Hoeffding's inequality the numerator's mean error is at
// most M·ε with ε = √(ln(2/α)/(2n)), and the denominator's mean is at least
// 1−M·ε, giving δ = M·ε/(1−M·ε).
func band(pdf uncertain.PDF, n int, exact bool) float64 {
	if exact {
		return exactSlack
	}
	m := peakRatio(pdf)
	eps := m * math.Sqrt(math.Log(2/oracleAlpha)/(2*float64(n)))
	if eps >= 0.5 {
		return 1 // no useful band: the check accepts anything
	}
	return eps/(1-eps) + exactSlack
}

// peakRatio is the pdf's largest density divided by its mean density over
// the uncertainty region.
func peakRatio(pdf uncertain.PDF) float64 {
	switch p := pdf.(type) {
	case *updf.UniformBall, *updf.UniformRect:
		return 1
	case *updf.ConGauBall:
		// The density peaks at the center; the region is a disc.
		r := p.MBR().Side(0) / 2
		return p.Density(p.Center()) * math.Pi * r * r
	case *updf.HistogramRect:
		peak := 0.0
		for _, m := range p.Mass {
			peak = math.Max(peak, m)
		}
		return peak * float64(len(p.Mass))
	}
	return math.Inf(1)
}

// exactProb is the object's appearance probability in rect.
func exactProb(pdf uncertain.PDF, rect uncertain.Rect) (float64, error) {
	mbr := pdf.MBR()
	if !mbr.Intersects(rect) {
		return 0, nil
	}
	if rect.Contains(mbr) {
		return 1, nil
	}
	ex, ok := pdf.(updf.ExactProber)
	if !ok {
		return 0, fmt.Errorf("pdf %T has no exact probability", pdf)
	}
	return ex.ExactProb(rect), nil
}

// checkRange reports what is wrong with got as the answer to q over live,
// or "" when it is right.
func checkRange(live map[int64]uncertain.PDF, q uncertain.RangeQuery, got []uncertain.Result, n int, exact bool) (string, error) {
	returned := make(map[int64]bool, len(got))
	for _, r := range got {
		if returned[r.ID] {
			return fmt.Sprintf("id %d returned twice", r.ID), nil
		}
		if _, ok := live[r.ID]; !ok {
			return fmt.Sprintf("id %d is not live", r.ID), nil
		}
		returned[r.ID] = true
	}
	for id, pdf := range live {
		p, err := exactProb(pdf, q.Rect)
		if err != nil {
			return "", err
		}
		d := band(pdf, n, exact)
		switch {
		case returned[id] && p < q.Prob-d:
			return fmt.Sprintf("id %d returned with exact probability %.4f < %.2f-%.4f", id, p, q.Prob, d), nil
		case !returned[id] && p >= q.Prob+d:
			return fmt.Sprintf("id %d missing with exact probability %.4f >= %.2f+%.4f", id, p, q.Prob, d), nil
		}
	}
	return "", nil
}

// checkNN reports what is wrong with a k-NN answer over live, or "".
func checkNN(live map[int64]uncertain.PDF, k int, got []uncertain.Neighbor) string {
	if want := min(k, len(live)); len(got) != want {
		return fmt.Sprintf("%d neighbours, want %d", len(got), want)
	}
	seen := make(map[int64]bool, len(got))
	for i, nb := range got {
		if seen[nb.ID] {
			return fmt.Sprintf("id %d returned twice", nb.ID)
		}
		seen[nb.ID] = true
		if _, ok := live[nb.ID]; !ok {
			return fmt.Sprintf("id %d is not live", nb.ID)
		}
		if i > 0 && nb.ExpectedDist < got[i-1].ExpectedDist {
			return fmt.Sprintf("distance %.3f after %.3f", nb.ExpectedDist, got[i-1].ExpectedDist)
		}
	}
	return ""
}
