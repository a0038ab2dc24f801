package pcr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

// nestedPCRs decodes fuzz input into a nested PCR sequence: m catalog
// values (uniform, or strictly ascending increments scaled to end at 0.5),
// and per dimension a centre with low and high offsets that shrink
// geometrically as j grows, collapsing to a point at p_m when asked.
func nestedPCRs(m, d uint8, scale float64, collapse, uniform bool, raw []byte) (PCRs, bool) {
	mm, dd := 2+int(m)%15, 1+int(d)%3
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return PCRs{}, false
	}
	scale = math.Min(math.Abs(scale), 1e7)
	next := func() float64 {
		if len(raw) == 0 {
			return 0.5
		}
		b := raw[0]
		raw = raw[1:]
		return float64(b) / 255
	}
	cat := UniformCatalog(mm)
	if !uniform {
		vals := make([]float64, mm)
		for j := 1; j < mm; j++ {
			vals[j] = vals[j-1] + 0.05 + next()
		}
		for j := 1; j < mm; j++ {
			vals[j] *= 0.5 / vals[mm-1]
		}
		vals[mm-1] = 0.5
		var err error
		if cat, err = NewCatalog(vals); err != nil {
			return PCRs{}, false
		}
	}
	boxes := make([]geom.Rect, mm)
	for j := range boxes {
		boxes[j] = geom.Rect{Lo: make(geom.Point, dd), Hi: make(geom.Point, dd)}
	}
	for i := 0; i < dd; i++ {
		ctr := (next() - 0.5) * 20 * scale
		a, b := (0.1+next())*scale, (0.1+next())*scale
		for j := 0; j < mm; j++ {
			if j > 0 {
				a *= next()
				b *= next()
			}
			if collapse && j == mm-1 {
				a, b = 0, 0
			}
			boxes[j].Lo[i], boxes[j].Hi[i] = ctr-a, ctr+b
		}
	}
	return PCRs{Cat: cat, Boxes: boxes}, true
}

// FuzzFitCFB checks the closed-form CFB fits against the simplex oracle on
// nested PCR sequences: the objectives agree within Validate's tolerance,
// Validate holds, and nothing panics.
func FuzzFitCFB(f *testing.F) {
	f.Add(uint8(13), uint8(1), 250.0, true, true, []byte{200, 100, 30, 250, 240, 230, 220, 210, 200, 190, 180, 170, 160, 150, 140, 130})
	f.Add(uint8(3), uint8(0), 1.0, false, false, []byte{0, 255, 0, 255, 128, 64, 32})
	f.Fuzz(func(t *testing.T, m, d uint8, scale float64, collapse, uniform bool, raw []byte) {
		pcrs, ok := nestedPCRs(m, d, scale, collapse, uniform, raw)
		if !ok {
			t.Skip()
		}
		checkFitAgainstLP(t, pcrs)
	})
}

// TestFitMatchesLP compares the closed forms with the simplex oracle on
// the PCRs of real pdf families at several catalog sizes, and checks that
// the coupled case of FitIn — the Inequality 14 coupling binding at p_m —
// is exercised.
func TestFitMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var faces, coupled int
	for _, m := range []int{2, 5, 8, 9, 15} {
		cat := UniformCatalog(m)
		for trial := 0; trial < 4; trial++ {
			pdfs := testPDFs(rng)
			ctr := geom.Point{rng.Float64() * 10000, rng.Float64() * 10000}
			pdfs = append(pdfs,
				updf.NewUniformBall(ctr, 50+rng.Float64()*250),
				updf.NewConGauBall(ctr, 250, 50+rng.Float64()*100),
			)
			for pi, p := range pdfs {
				pcrs := Compute(p, cat, nil)
				t.Run("", func(t *testing.T) {
					for _, c := range checkFitAgainstLP(t, pcrs) {
						faces++
						if c {
							coupled++
						}
					}
				})
				if t.Failed() {
					t.Fatalf("m=%d pdf %d", m, pi)
				}
			}
		}
	}
	t.Logf("%d of %d face pairs coupled", coupled, faces)
	if coupled == 0 || coupled == faces {
		t.Fatalf("%d of %d face pairs coupled: want both cases covered", coupled, faces)
	}
}
