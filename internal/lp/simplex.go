// Package lp implements a dense two-phase simplex solver for small linear
// programs of the form
//
//	maximize    c·x
//	subject to  A x ≤ b,   x free
//
// Section 4.4 of the U-tree paper casts conservative functional box (CFB)
// fitting — the tightest linear over/under-approximation of a PCR family —
// as linear programming and solves it with the classic Simplex method.
// internal/pcr fits CFBs with exact closed forms instead; this package is
// the oracle its tests and fuzz target check those closed forms against,
// and no production code imports it. Free variables are handled by the
// standard x = x⁺ − x⁻ split; infeasibility and unboundedness are detected
// and reported as errors.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Errors reported by Solve.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: objective is unbounded")
	ErrCycling    = errors.New("lp: iteration limit exceeded")
)

const eps = 1e-9

// Problem is max C·x subject to A x ≤ B with free (sign-unrestricted) x.
type Problem struct {
	C []float64
	A [][]float64
	B []float64
}

// Validate checks structural consistency of the problem.
func (p Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("lp: empty objective")
	}
	if len(p.A) != len(p.B) {
		return fmt.Errorf("lp: %d constraint rows but %d bounds", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	return nil
}

// Solve returns an optimal solution x and objective value. The solution is a
// vertex of the feasible polytope; ties between optimal vertices are broken
// arbitrarily.
func Solve(p Problem) (x []float64, value float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(p.C)
	m := len(p.A)
	if m == 0 {
		// No constraints: any nonzero objective direction is unbounded.
		for _, cj := range p.C {
			if cj != 0 {
				return nil, 0, ErrUnbounded
			}
		}
		return make([]float64, n), 0, nil
	}

	// Split free variables: x_j = u_j − v_j, u,v ≥ 0. Column layout:
	// [u_0..u_{n-1}, v_0..v_{n-1}, slack_0..slack_{m-1}, artificials...].
	nv := 2 * n
	cols := nv + m // before artificials
	t := newTableau(m, cols)
	art := make([]int, 0, m)
	for i := 0; i < m; i++ {
		bi := p.B[i]
		sign := 1.0
		if bi < 0 {
			// Normalize to a nonnegative RHS; the slack then enters with −1
			// and an artificial variable provides the starting basis.
			sign = -1.0
		}
		for j := 0; j < n; j++ {
			t.a[i][j] = sign * p.A[i][j]
			t.a[i][n+j] = -sign * p.A[i][j]
		}
		t.a[i][nv+i] = sign // slack
		t.rhs[i] = sign * bi
		if bi < 0 {
			art = append(art, i)
		} else {
			t.basis[i] = nv + i
		}
	}
	// Append artificial columns.
	for k, i := range art {
		col := cols + k
		t.grow(1)
		t.a[i][col] = 1
		t.basis[i] = col
	}
	nArt := len(art)
	total := cols + nArt

	if nArt > 0 {
		// Phase 1: maximize −Σ artificials.
		obj := make([]float64, total)
		for k := 0; k < nArt; k++ {
			obj[cols+k] = -1
		}
		if err := t.run(obj); err != nil {
			return nil, 0, err
		}
		if t.objective(obj) < -1e-7 {
			return nil, 0, ErrInfeasible
		}
		// Drive any lingering (degenerate, zero-valued) artificials out of
		// the basis so phase 2 never pivots on them.
		for i := 0; i < m; i++ {
			if t.basis[i] >= cols {
				pivoted := false
				for j := 0; j < cols; j++ {
					if math.Abs(t.a[i][j]) > eps {
						t.pivot(i, j)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Row is all zeros over real columns: redundant
					// constraint; leave the artificial basic at value 0.
					_ = pivoted
				}
			}
		}
		// Forbid artificial columns from re-entering by zeroing them.
		for i := 0; i < m; i++ {
			for k := 0; k < nArt; k++ {
				t.a[i][cols+k] = 0
			}
		}
	}

	// Phase 2: the real objective over the split variables.
	obj := make([]float64, total)
	for j := 0; j < n; j++ {
		obj[j] = p.C[j]
		obj[n+j] = -p.C[j]
	}
	if err := t.run(obj); err != nil {
		return nil, 0, err
	}

	sol := t.solution(total)
	x = make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = sol[j] - sol[n+j]
	}
	return x, t.objective(obj), nil
}

// tableau is a dense simplex tableau without an embedded objective row; the
// objective is passed to run/pricing explicitly, which keeps phase switching
// trivial.
type tableau struct {
	m     int
	a     [][]float64
	rhs   []float64
	basis []int
}

func newTableau(m, cols int) *tableau {
	t := &tableau{m: m, rhs: make([]float64, m), basis: make([]int, m)}
	t.a = make([][]float64, m)
	for i := range t.a {
		t.a[i] = make([]float64, cols)
	}
	for i := range t.basis {
		t.basis[i] = -1
	}
	return t
}

func (t *tableau) grow(extra int) {
	for i := range t.a {
		t.a[i] = append(t.a[i], make([]float64, extra)...)
	}
}

// reducedCost computes c_j − c_B·B⁻¹A_j for column j given objective c.
func (t *tableau) reducedCost(c []float64, j int) float64 {
	r := c[j]
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b >= 0 && c[b] != 0 {
			r -= c[b] * t.a[i][j]
		}
	}
	return r
}

// objective evaluates c over the current basic solution.
func (t *tableau) objective(c []float64) float64 {
	var v float64
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b >= 0 {
			v += c[b] * t.rhs[i]
		}
	}
	return v
}

// solution extracts the current basic solution over `total` columns.
func (t *tableau) solution(total int) []float64 {
	x := make([]float64, total)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b >= 0 {
			x[b] = t.rhs[i]
		}
	}
	return x
}

// pivot performs a standard pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	inv := 1 / p
	for j := range t.a[row] {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	t.a[row][col] = 1 // kill residual roundoff
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := range t.a[i] {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.a[i][col] = 0
		t.rhs[i] -= f * t.rhs[row]
	}
	t.basis[row] = col
}

// run optimizes objective c (maximization) with Bland's rule, which cannot
// cycle; problem sizes here are tiny so the simplicity/robustness trade is
// the right one.
func (t *tableau) run(c []float64) error {
	if t.m == 0 {
		return nil
	}
	cols := len(t.a[0])
	for iter := 0; iter < 10000; iter++ {
		// Bland: entering = lowest-index column with positive reduced cost.
		enter := -1
		for j := 0; j < cols; j++ {
			if t.reducedCost(c, j) > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Ratio test; Bland tie-break on lowest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > eps {
				ratio := t.rhs[i] / t.a[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		t.pivot(leave, enter)
	}
	return ErrCycling
}
