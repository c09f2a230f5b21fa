package lp

import "sort"

// Sparse LU basis kernel.
//
// The basis matrix B (columns of A selected by the solver, in slot
// order) is held as a permuted sparse LU factorization plus a
// product-form eta file:
//
//	B = L·U·E₁·E₂·…·E_k
//
// refactor builds L·U with a two-stage Markowitz-style ordering. Stage 1
// peels column and row singletons by pure permutation discovery: a
// column singleton pivots with no multipliers and no fill, a row
// singleton pivots with multipliers only and no fill, and neither stage
// ever changes a stored value — timing LP bases are near-triangular, so
// this stage usually consumes the whole matrix. Stage 2 factorizes the
// leftover "bump" with classic Markowitz ordering (fewest-entries column,
// largest-stable entry within it) over small dynamic row/column maps.
// All map-derived orderings are sorted before use so the factorization —
// and therefore every solve — is bit-for-bit deterministic.
//
// Each simplex pivot appends one eta E_g (identity with one column
// replaced by the pivot tableau column alpha); FTRAN applies etas oldest
// to newest after the factor solve, BTRAN applies their transposes
// newest to oldest before it. update asks for a refactorization when the
// eta file grows past its bounds or a pivot element is dangerously
// small; the solver additionally refactorizes on residual drift.
//
// Singular or near-singular bases never fail: unpivotable columns are
// patched with unit columns of the unpivoted rows (a legal repair — an
// unpivoted row's slack is provably nonbasic) and reported to the solver,
// which installs the matching slacks.

const (
	luUTol      = 1e-11 // pivot magnitude below which a column is declared singular
	luStabRel   = 0.1   // bump pivot must be ≥ this fraction of its column's max
	luBumpDrop  = 1e-13 // bump fill below this magnitude is dropped
	luSmallPiv  = 1e-6  // eta pivot magnitude that requests a refactorization
	luMaxEtas   = 64    // eta-file length bound
	luEtaNnzPad = 4096  // slack added to the eta-file nonzero bound
)

// upair is a pending U entry: the value a pivot row held in a
// then-active column, keyed by the pivot step that recorded it.
type upair struct {
	step int32
	val  float64
}

type luKernel struct {
	p *problem
	m int

	// Factorization, indexed by elimination step k (0..m-1). pstep[k] is
	// the pivot constraint row, qstep[k] the pivot slot, ud[k] the pivot
	// value. L multipliers are CSR over steps (lrow holds constraint
	// rows); U off-diagonal entries are CSR over the pivot column's step
	// (urow holds the earlier step each entry belongs to).
	pstep []int32
	qstep []int32
	ud    []float64
	lptr  []int32
	lrow  []int32
	lval  []float64
	uptr  []int32
	urow  []int32
	uval  []float64

	// Product-form eta file, one eta per simplex pivot since the last
	// refactorization. Non-pivot entries are CSR; indices are slots.
	etaPiv    []int32
	etaPivVal []float64
	etaPtr    []int32
	etaIdx    []int32
	etaVal    []float64

	// Refactorization policy. Tests lower these to force the bounds.
	maxEtas   int
	etaNnzCap int

	// Scratch reused across calls and refactorizations.
	work  []float64 // row-space FTRAN scratch
	work2 []float64 // slot-space BTRAN scratch
	workz []float64 // step-space BTRAN scratch
	upend [][]upair // pending U entries per slot

	rowPtr  []int32 // refactor: CSR rows over (slot, value) of the basis
	rowSlot []int32
	rowValR []float64

	stats KernelStats
}

func newLUKernel(p *problem) *luKernel {
	m := p.m
	k := &luKernel{
		p: p, m: m,
		maxEtas:   luMaxEtas,
		etaNnzCap: luEtaNnzPad, // widened from factor fill at each refactor
		work:      make([]float64, m),
		work2:     make([]float64, m),
		workz:     make([]float64, m),
		upend:     make([][]upair, m),
		etaPtr:    make([]int32, 1, luMaxEtas+1),
	}
	return k
}

func (k *luKernel) kstats() KernelStats {
	st := k.stats
	st.Etas = len(k.etaPiv)
	st.EtaNnz = len(k.etaIdx)
	st.FactorNnz = len(k.lval) + len(k.uval) + k.m
	return st
}

// factorFtran solves L·U x = w. w is in constraint-row space and is
// destroyed; the solution lands in x, indexed by slot.
func (k *luKernel) factorFtran(w, x []float64) {
	m := k.m
	for kk := 0; kk < m; kk++ {
		t := w[k.pstep[kk]]
		if t != 0 {
			for idx := k.lptr[kk]; idx < k.lptr[kk+1]; idx++ {
				w[k.lrow[idx]] -= k.lval[idx] * t
			}
		}
	}
	for kk := m - 1; kk >= 0; kk-- {
		t := w[k.pstep[kk]]
		if t != 0 {
			t /= k.ud[kk]
			for idx := k.uptr[kk]; idx < k.uptr[kk+1]; idx++ {
				w[k.pstep[k.urow[idx]]] -= k.uval[idx] * t
			}
		}
		x[k.qstep[kk]] = t
	}
}

// factorBtran solves (L·U)ᵀ y = c. c is in slot space and is not
// modified; y is in constraint-row space.
func (k *luKernel) factorBtran(c, y []float64) {
	m := k.m
	z := k.workz
	for kk := 0; kk < m; kk++ {
		t := c[k.qstep[kk]]
		for idx := k.uptr[kk]; idx < k.uptr[kk+1]; idx++ {
			t -= k.uval[idx] * z[k.urow[idx]]
		}
		z[kk] = t / k.ud[kk]
	}
	for kk := 0; kk < m; kk++ {
		y[k.pstep[kk]] = z[kk]
	}
	for kk := m - 1; kk >= 0; kk-- {
		lo, hi := k.lptr[kk], k.lptr[kk+1]
		if lo == hi {
			continue
		}
		acc := 0.0
		for idx := lo; idx < hi; idx++ {
			acc += k.lval[idx] * y[k.lrow[idx]]
		}
		y[k.pstep[kk]] -= acc
	}
}

// applyEtasFtran finishes an FTRAN by applying the eta inverses oldest
// to newest, in slot space.
func (k *luKernel) applyEtasFtran(x []float64) {
	for g := 0; g < len(k.etaPiv); g++ {
		r := k.etaPiv[g]
		t := x[r]
		if t != 0 {
			t /= k.etaPivVal[g]
			for idx := k.etaPtr[g]; idx < k.etaPtr[g+1]; idx++ {
				x[k.etaIdx[idx]] -= k.etaVal[idx] * t
			}
		}
		x[r] = t
	}
}

// applyEtasBtran starts a BTRAN by applying the eta transposes newest to
// oldest, in slot space (in place).
func (k *luKernel) applyEtasBtran(c []float64) {
	for g := len(k.etaPiv) - 1; g >= 0; g-- {
		r := k.etaPiv[g]
		t := c[r]
		for idx := k.etaPtr[g]; idx < k.etaPtr[g+1]; idx++ {
			t -= k.etaVal[idx] * c[k.etaIdx[idx]]
		}
		c[r] = t / k.etaPivVal[g]
	}
}

func (k *luKernel) ftranCol(e int, alpha []float64) {
	w := k.work
	for i := range w {
		w[i] = 0
	}
	idx, val := k.p.colIdx[e], k.p.colVal[e]
	for kk, r := range idx {
		w[r] = val[kk]
	}
	k.factorFtran(w, alpha)
	k.applyEtasFtran(alpha)
}

func (k *luKernel) ftranVec(rhs, x []float64) {
	copy(k.work, rhs)
	k.factorFtran(k.work, x)
	k.applyEtasFtran(x)
}

func (k *luKernel) btran(cB, y []float64) {
	copy(k.work2, cB)
	k.applyEtasBtran(k.work2)
	k.factorBtran(k.work2, y)
}

func (k *luKernel) update(slot, e int, alpha []float64) bool {
	piv := alpha[slot]
	k.etaPiv = append(k.etaPiv, int32(slot))
	k.etaPivVal = append(k.etaPivVal, piv)
	for i := 0; i < k.m; i++ {
		if i == slot {
			continue
		}
		a := alpha[i]
		if a < dropTol && a > -dropTol {
			continue
		}
		k.etaIdx = append(k.etaIdx, int32(i))
		k.etaVal = append(k.etaVal, a)
	}
	k.etaPtr = append(k.etaPtr, int32(len(k.etaIdx)))
	if len(k.etaPiv) >= k.maxEtas || len(k.etaIdx) >= k.etaNnzCap {
		return true
	}
	return piv < luSmallPiv && piv > -luSmallPiv
}

// refactor rebuilds L·U from the basis columns, resets the eta file, and
// repairs (near-)singular slots with unit columns. See the package
// comment at the top of this file for the two-stage ordering.
func (k *luKernel) refactor(basis []int32) (repairs [][2]int32, ok bool) {
	p, m := k.p, k.m
	k.stats.Refactors++

	// Reset factorization and eta storage, reusing capacity.
	k.pstep = k.pstep[:0]
	k.qstep = k.qstep[:0]
	k.ud = k.ud[:0]
	k.lptr = append(k.lptr[:0], 0)
	k.lrow = k.lrow[:0]
	k.lval = k.lval[:0]
	k.etaPiv = k.etaPiv[:0]
	k.etaPivVal = k.etaPivVal[:0]
	k.etaPtr = append(k.etaPtr[:0], 0)
	k.etaIdx = k.etaIdx[:0]
	k.etaVal = k.etaVal[:0]
	for q := range k.upend {
		k.upend[q] = k.upend[q][:0]
	}
	if m == 0 {
		k.uptr = append(k.uptr[:0], 0)
		return nil, true
	}

	// Build the row-wise view of B: entries (slot, value) per constraint
	// row, and per-row/per-column active-entry counts.
	cnt := make([]int32, m)
	nnz := 0
	for q := 0; q < m; q++ {
		idx := p.colIdx[basis[q]]
		nnz += len(idx)
		for _, r := range idx {
			cnt[r]++
		}
	}
	if cap(k.rowSlot) < nnz {
		k.rowSlot = make([]int32, nnz)
		k.rowValR = make([]float64, nnz)
	}
	k.rowSlot = k.rowSlot[:nnz]
	k.rowValR = k.rowValR[:nnz]
	if cap(k.rowPtr) < m+1 {
		k.rowPtr = make([]int32, m+1)
	}
	k.rowPtr = k.rowPtr[:m+1]
	pos := k.rowPtr
	pos[0] = 0
	for i := 0; i < m; i++ {
		pos[i+1] = pos[i] + cnt[i]
	}
	fill := make([]int32, m)
	copy(fill, pos[:m])
	rowCnt := cnt // reuse: becomes the active-entry count per row
	colCnt := make([]int32, m)
	for q := 0; q < m; q++ {
		idx, val := p.colIdx[basis[q]], p.colVal[basis[q]]
		colCnt[q] = int32(len(idx))
		for kk, r := range idx {
			k.rowSlot[fill[r]] = int32(q)
			k.rowValR[fill[r]] = val[kk]
			fill[r]++
		}
	}

	rowActive := make([]bool, m)
	colActive := make([]bool, m)
	for i := range rowActive {
		rowActive[i] = true
		colActive[i] = true
	}

	var badSlots []int32
	var colQ, rowQ []int32
	for q := int32(0); q < int32(m); q++ {
		if colCnt[q] <= 1 {
			colQ = append(colQ, q)
		}
	}
	for i := int32(0); i < int32(m); i++ {
		if rowCnt[i] == 1 {
			rowQ = append(rowQ, i)
		}
	}

	// dropCol deactivates a singular column and releases its rows.
	dropCol := func(q int32) {
		colActive[q] = false
		badSlots = append(badSlots, q)
		idx := p.colIdx[basis[q]]
		for _, r := range idx {
			if !rowActive[r] {
				continue
			}
			rowCnt[r]--
			if rowCnt[r] == 1 {
				rowQ = append(rowQ, r)
			}
		}
	}

	// pivot records step (prow, qslot, pv), emits L multipliers from the
	// column's remaining active entries and U entries from the row's
	// remaining active columns, then deactivates both.
	pivot := func(prow, qslot int32, pv float64) {
		step := int32(len(k.pstep))
		k.pstep = append(k.pstep, prow)
		k.qstep = append(k.qstep, qslot)
		k.ud = append(k.ud, pv)
		rowActive[prow] = false
		colActive[qslot] = false
		// U: surviving columns of the pivot row.
		for idx := k.rowPtr[prow]; idx < k.rowPtr[prow+1]; idx++ {
			q2 := k.rowSlot[idx]
			if !colActive[q2] {
				continue
			}
			k.upend[q2] = append(k.upend[q2], upair{step, k.rowValR[idx]})
			colCnt[q2]--
			if colCnt[q2] <= 1 {
				colQ = append(colQ, q2)
			}
		}
		// L: surviving rows of the pivot column.
		cidx, cval := p.colIdx[basis[qslot]], p.colVal[basis[qslot]]
		for kk, r := range cidx {
			if !rowActive[r] {
				continue
			}
			k.lrow = append(k.lrow, r)
			k.lval = append(k.lval, cval[kk]/pv)
			rowCnt[r]--
			if rowCnt[r] == 1 {
				rowQ = append(rowQ, r)
			}
		}
		k.lptr = append(k.lptr, int32(len(k.lrow)))
	}

	// Stage 1: singleton elimination. Column singletons first (no
	// multipliers at all), then row singletons (multipliers, no fill).
	// Values are never modified, so the static column/row views stay
	// valid throughout: eliminating a pivot only changes entries inside
	// its own (deactivated) row and column.
	for {
		if len(colQ) > 0 {
			q := colQ[len(colQ)-1]
			colQ = colQ[:len(colQ)-1]
			if !colActive[q] || colCnt[q] > 1 {
				continue
			}
			if colCnt[q] == 0 {
				dropCol(q)
				continue
			}
			idx, val := p.colIdx[basis[q]], p.colVal[basis[q]]
			for kk, r := range idx {
				if !rowActive[r] {
					continue
				}
				if v := val[kk]; v >= luUTol || v <= -luUTol {
					pivot(r, q, v)
				} else {
					dropCol(q)
				}
				break
			}
			continue
		}
		if len(rowQ) > 0 {
			i := rowQ[len(rowQ)-1]
			rowQ = rowQ[:len(rowQ)-1]
			if !rowActive[i] || rowCnt[i] != 1 {
				continue
			}
			for idx := k.rowPtr[i]; idx < k.rowPtr[i+1]; idx++ {
				q := k.rowSlot[idx]
				if !colActive[q] {
					continue
				}
				// A tiny row singleton is left for the bump, where its
				// column may still pivot on a better row.
				if v := k.rowValR[idx]; v >= luUTol || v <= -luUTol {
					pivot(i, q, v)
				}
				break
			}
			continue
		}
		break
	}

	// Stage 2: Markowitz bump over dynamic maps. Usually empty for
	// timing LP bases.
	k.stats.Bump = 0
	var activeCols []int32
	for q := int32(0); q < int32(m); q++ {
		if colActive[q] {
			activeCols = append(activeCols, q)
		}
	}
	if len(activeCols) > 0 {
		k.stats.Bump = len(activeCols)
		k.factorBump(basis, activeCols, rowActive, colActive, &badSlots)
	}

	// Pair leftover rows with singular slots: patch each slot with the
	// unpivoted row's unit column and report the swap.
	var badRows []int32
	for i := int32(0); i < int32(m); i++ {
		if rowActive[i] {
			badRows = append(badRows, i)
		}
	}
	sort.Slice(badSlots, func(a, b int) bool { return badSlots[a] < badSlots[b] })
	for idx, q := range badSlots {
		r := badRows[idx]
		k.upend[q] = k.upend[q][:0] // the original column's U entries die with it
		k.pstep = append(k.pstep, r)
		k.qstep = append(k.qstep, q)
		k.ud = append(k.ud, 1)
		k.lptr = append(k.lptr, int32(len(k.lrow)))
		repairs = append(repairs, [2]int32{q, r})
		k.stats.Repairs++
	}

	// Finalize U: gather each pivot column's pending entries, ordered by
	// recording step for deterministic summation.
	if cap(k.uptr) < m+1 {
		k.uptr = make([]int32, 0, m+1)
	}
	k.uptr = append(k.uptr[:0], 0)
	k.urow = k.urow[:0]
	k.uval = k.uval[:0]
	for step := 0; step < m; step++ {
		pend := k.upend[k.qstep[step]]
		sort.Slice(pend, func(a, b int) bool { return pend[a].step < pend[b].step })
		for _, e := range pend {
			k.urow = append(k.urow, e.step)
			k.uval = append(k.uval, e.val)
		}
		k.uptr = append(k.uptr, int32(len(k.urow)))
	}

	// Widen the eta nonzero bound with the realized fill so dense-ish
	// factorizations are not forced into thrashing refactorizations.
	k.etaNnzCap = 2*(len(k.lval)+len(k.uval)+m) + luEtaNnzPad

	return repairs, true
}

// factorBump runs classic Markowitz elimination on whatever stage 1
// could not reach, over sorted materializations of dynamic row/column
// maps so the result is deterministic.
func (k *luKernel) factorBump(basis, activeCols []int32, rowActive, colActive []bool, badSlots *[]int32) {
	p := k.p
	brow := make(map[int32]map[int32]float64)
	bcol := make(map[int32]map[int32]float64)
	for _, q := range activeCols {
		cq := make(map[int32]float64)
		bcol[q] = cq
		idx, val := p.colIdx[basis[q]], p.colVal[basis[q]]
		for kk, r := range idx {
			if !rowActive[r] {
				continue
			}
			cq[r] = val[kk]
			ri := brow[r]
			if ri == nil {
				ri = make(map[int32]float64)
				brow[r] = ri
			}
			ri[q] = val[kk]
		}
	}

	type ent struct {
		at int32
		v  float64
	}
	var colEnts, rowEnts []ent
	remaining := len(activeCols)
	for remaining > 0 {
		// Pick the active column with the fewest entries (smallest slot
		// on ties — the scan order makes that implicit).
		var qbest int32 = -1
		bestLen := 1 << 30
		for _, q := range activeCols {
			if !colActive[q] {
				continue
			}
			if l := len(bcol[q]); l < bestLen {
				bestLen, qbest = l, q
			}
		}
		cq := bcol[qbest]
		colEnts = colEnts[:0]
		maxAbs := 0.0
		for r, v := range cq {
			colEnts = append(colEnts, ent{r, v})
			if a := v; a < 0 {
				a = -a
				if a > maxAbs {
					maxAbs = a
				}
			} else if a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs < luUTol {
			// Singular column: drop it and scrub its entries.
			colActive[qbest] = false
			*badSlots = append(*badSlots, qbest)
			for _, e := range colEnts {
				delete(brow[e.at], qbest)
			}
			delete(bcol, qbest)
			remaining--
			continue
		}
		sort.Slice(colEnts, func(a, b int) bool { return colEnts[a].at < colEnts[b].at })
		// Stable pivot with the shortest row (Markowitz count).
		var prow int32 = -1
		var pv float64
		bestRow := 1 << 30
		for _, e := range colEnts {
			a := e.v
			if a < 0 {
				a = -a
			}
			if a < luStabRel*maxAbs {
				continue
			}
			if l := len(brow[e.at]); l < bestRow {
				bestRow, prow, pv = l, e.at, e.v
			}
		}

		step := int32(len(k.pstep))
		k.pstep = append(k.pstep, prow)
		k.qstep = append(k.qstep, qbest)
		k.ud = append(k.ud, pv)
		rowActive[prow] = false
		colActive[qbest] = false
		remaining--

		rowEnts = rowEnts[:0]
		for q2, u := range brow[prow] {
			if q2 != qbest {
				rowEnts = append(rowEnts, ent{q2, u})
			}
		}
		sort.Slice(rowEnts, func(a, b int) bool { return rowEnts[a].at < rowEnts[b].at })
		for _, e := range rowEnts {
			k.upend[e.at] = append(k.upend[e.at], upair{step, e.v})
		}

		// Eliminate: subtract multiples of the pivot row from every other
		// row holding the pivot column.
		for _, ce := range colEnts {
			i2 := ce.at
			if i2 == prow {
				continue
			}
			mult := ce.v / pv
			k.lrow = append(k.lrow, i2)
			k.lval = append(k.lval, mult)
			ri := brow[i2]
			delete(ri, qbest)
			for _, re := range rowEnts {
				q2 := re.at
				nv := ri[q2] - mult*re.v
				if nv < luBumpDrop && nv > -luBumpDrop {
					if _, had := ri[q2]; had {
						delete(ri, q2)
						delete(bcol[q2], i2)
					}
				} else {
					ri[q2] = nv
					bcol[q2][i2] = nv
				}
			}
		}
		k.lptr = append(k.lptr, int32(len(k.lrow)))
		// Scrub the pivot row's surviving entries from the column maps.
		for _, re := range rowEnts {
			delete(bcol[re.at], prow)
		}
		delete(brow, prow)
		delete(bcol, qbest)
	}
}
