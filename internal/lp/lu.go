package lp

import (
	"math/bits"
	"slices"
	"sort"
)

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
// BTRAN (the pricing solve) is sparse but keeps the dense gather's
// operation order term for term. Each eta carries a bitmap of its slots,
// and the eta pass gathers only over the AND of that bitmap and a bitmap
// of the slots where c is nonzero, in ascending slot order. The Uᵀ solve
// scatters each finished step along a transposed copy of U, built by
// refactor; every target still receives its subtractions in ascending
// step order, because U columns list their steps in ascending order. The
// Lᵀ pass visits only the steps that carry multipliers. Every term this
// skips has an exact ±0 factor, so the only difference from the gather
// is the sign of a zero, which never reaches a nonzero: the kernel
// divides only by pivots, and y feeds only reduced-cost sums that start
// at +0, where adding either zero is exact.
//
// A kernel lives in a pooled solver (simplex.go): reset resizes it to
// each problem and keeps the capacity of every buffer, the factors and
// the eta file included, so repeated solves stop regrowing them.
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

	// U transposed for BTRAN: CSR over the step each entry belongs to,
	// utcol holding the later step whose column carries it, ascending.
	// lsteps lists the steps that carry L multipliers, ascending.
	utptr  []int32
	utcol  []int32
	utval  []float64
	lsteps []int32

	// Product-form eta file, one eta per simplex pivot since the last
	// refactorization. Non-pivot entries are CSR; indices are slots.
	// etaBits holds each eta's slot bitmap, words uint64s per eta, and
	// etaRank the number of the eta's entries before each of its words.
	etaPiv    []int32
	etaPivVal []float64
	etaPtr    []int32
	etaIdx    []int32
	etaVal    []float64
	etaBits   []uint64
	etaRank   []int32
	words     int

	// Refactorization policy. Tests lower these to force the bounds.
	maxEtas   int
	etaNnzCap int

	// Scratch reused across calls and refactorizations.
	work  []float64 // row-space FTRAN scratch
	work2 []float64 // slot-space BTRAN scratch
	workz []float64 // step-space BTRAN scratch
	cbits []uint64  // BTRAN: bitmap of the slots where c may be nonzero
	upend [][]upair // pending U entries per slot

	rowPtr  []int32 // refactor: CSR rows over (slot, value) of the basis
	rowSlot []int32
	rowValR []float64
	// refactor: per-row entry count (then active-entry count), row fill
	// cursor, per-slot active-entry count and the active row/slot flags.
	rowCnt, fill, colCnt []int32
	rowActive, colActive []bool
	// refactor: singleton queues, singular slots and unpivoted rows, the
	// bump's columns, and the repairs it reports.
	colQ, rowQ, badSlots, badRows, activeCols []int32
	repairs                                   [][2]int32
}

func newLUKernel(p *problem) *luKernel {
	k := &luKernel{}
	k.reset(p)
	return k
}

// reset sizes the kernel's scratch for p, keeping the capacity of every
// buffer, so one kernel serves problem after problem. refactor must run
// before any solve.
func (k *luKernel) reset(p *problem) {
	m := p.m
	k.p, k.m = p, m
	k.maxEtas = luMaxEtas
	k.etaNnzCap = luEtaNnzPad // widened from factor fill at each refactor
	k.words = (m + 63) / 64
	k.work = resize(k.work, m)
	k.work2 = resize(k.work2, m)
	k.workz = resize(k.workz, m)
	k.cbits = resize(k.cbits, k.words)
	k.upend = resize(k.upend, m)
	k.rowCnt = resize(k.rowCnt, m)
	k.fill = resize(k.fill, m)
	k.colCnt = resize(k.colCnt, m)
	k.rowActive = resize(k.rowActive, m)
	k.colActive = resize(k.colActive, m)
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
// modified; y is in constraint-row space. The Uᵀ solve scatters each
// finished step down its row of U, skipping zeros; see the package
// comment for why this matches a gather over U's columns bit for bit.
func (k *luKernel) factorBtran(c, y []float64) {
	m := k.m
	z := k.workz
	for kk := 0; kk < m; kk++ {
		z[kk] = c[k.qstep[kk]]
	}
	for kk := 0; kk < m; kk++ {
		t := z[kk] / k.ud[kk]
		z[kk] = t
		if t == 0 {
			continue
		}
		for idx := k.utptr[kk]; idx < k.utptr[kk+1]; idx++ {
			z[k.utcol[idx]] -= k.utval[idx] * t
		}
	}
	for kk := 0; kk < m; kk++ {
		y[k.pstep[kk]] = z[kk]
	}
	for i := len(k.lsteps) - 1; i >= 0; i-- {
		kk := k.lsteps[i]
		acc := 0.0
		for idx := k.lptr[kk]; idx < k.lptr[kk+1]; idx++ {
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
// oldest, in slot space (in place). Each eta gathers only over the slots
// set in both its bitmap and cbits, which covers every nonzero of c, in
// ascending slot order.
func (k *luKernel) applyEtasBtran(c []float64) {
	cb := k.cbits
	clear(cb)
	for i, v := range c {
		if v != 0 {
			cb[i>>6] |= 1 << (i & 63)
		}
	}
	nw := k.words
	for g := len(k.etaPiv) - 1; g >= 0; g-- {
		r := k.etaPiv[g]
		t := c[r]
		eb, rank := k.etaBits[g*nw:(g+1)*nw], k.etaRank[g*nw:(g+1)*nw]
		base := k.etaPtr[g]
		for w, b := range eb {
			x := b & cb[w]
			for x != 0 {
				low := x & -x
				x ^= low
				idx := base + rank[w] + int32(bits.OnesCount64(b&(low-1)))
				t -= k.etaVal[idx] * c[k.etaIdx[idx]]
			}
		}
		t /= k.etaPivVal[g]
		c[r] = t
		if t != 0 {
			cb[r>>6] |= 1 << (r & 63)
		} else {
			cb[r>>6] &^= 1 << (r & 63)
		}
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
	nw := len(k.etaBits)
	k.etaBits = slices.Grow(k.etaBits, k.words)[:nw+k.words]
	k.etaRank = slices.Grow(k.etaRank, k.words)[:nw+k.words]
	eb, rank := k.etaBits[nw:], k.etaRank[nw:]
	clear(eb)
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
		eb[i>>6] |= 1 << (i & 63)
	}
	k.etaPtr = append(k.etaPtr, int32(len(k.etaIdx)))
	n := int32(0)
	for w, b := range eb {
		rank[w] = n
		n += int32(bits.OnesCount64(b))
	}
	if len(k.etaPiv) >= k.maxEtas || len(k.etaIdx) >= k.etaNnzCap {
		return true
	}
	return piv < luSmallPiv && piv > -luSmallPiv
}

// refactor rebuilds L·U from the basis columns, resets the eta file, and
// repairs (near-)singular slots with unit columns. See the package
// comment at the top of this file for the two-stage ordering. The
// repairs slice is kernel scratch, valid until the next refactor.
func (k *luKernel) refactor(basis []int32) (repairs [][2]int32, ok bool) {
	p, m := k.p, k.m

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
	k.etaBits = k.etaBits[:0]
	k.etaRank = k.etaRank[:0]
	k.lsteps = k.lsteps[:0]
	for q := range k.upend {
		k.upend[q] = k.upend[q][:0]
	}
	if m == 0 {
		k.uptr = append(k.uptr[:0], 0)
		k.utptr = append(k.utptr[:0], 0)
		return nil, true
	}

	// Build the row-wise view of B: entries (slot, value) per constraint
	// row, and per-row/per-column active-entry counts.
	cnt := k.rowCnt
	clear(cnt)
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
	fill := k.fill
	copy(fill, pos[:m])
	rowCnt := cnt // reuse: becomes the active-entry count per row
	colCnt := k.colCnt
	for q := 0; q < m; q++ {
		idx, val := p.colIdx[basis[q]], p.colVal[basis[q]]
		colCnt[q] = int32(len(idx))
		for kk, r := range idx {
			k.rowSlot[fill[r]] = int32(q)
			k.rowValR[fill[r]] = val[kk]
			fill[r]++
		}
	}

	rowActive, colActive := k.rowActive, k.colActive
	for i := range rowActive {
		rowActive[i] = true
		colActive[i] = true
	}

	badSlots, colQ, rowQ := k.badSlots[:0], k.colQ[:0], k.rowQ[:0]
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
	activeCols := k.activeCols[:0]
	for q := int32(0); q < int32(m); q++ {
		if colActive[q] {
			activeCols = append(activeCols, q)
		}
	}
	if len(activeCols) > 0 {
		k.factorBump(basis, activeCols, rowActive, colActive, &badSlots)
	}

	// Pair leftover rows with singular slots: patch each slot with the
	// unpivoted row's unit column and report the swap.
	badRows := k.badRows[:0]
	for i := int32(0); i < int32(m); i++ {
		if rowActive[i] {
			badRows = append(badRows, i)
		}
	}
	slices.Sort(badSlots)
	repairs = k.repairs[:0]
	for idx, q := range badSlots {
		r := badRows[idx]
		k.upend[q] = k.upend[q][:0] // the original column's U entries die with it
		k.pstep = append(k.pstep, r)
		k.qstep = append(k.qstep, q)
		k.ud = append(k.ud, 1)
		k.lptr = append(k.lptr, int32(len(k.lrow)))
		repairs = append(repairs, [2]int32{q, r})
	}

	// Finalize U: gather each pivot column's pending entries. Each was
	// appended at its step, so they are in recording step order already,
	// which keeps the summation deterministic.
	if cap(k.uptr) < m+1 {
		k.uptr = make([]int32, 0, m+1)
	}
	k.uptr = append(k.uptr[:0], 0)
	k.urow = k.urow[:0]
	k.uval = k.uval[:0]
	for step := 0; step < m; step++ {
		for _, e := range k.upend[k.qstep[step]] {
			k.urow = append(k.urow, e.step)
			k.uval = append(k.uval, e.val)
		}
		k.uptr = append(k.uptr, int32(len(k.urow)))
	}

	// Transpose U for BTRAN. Columns are visited in step order, so each
	// row lists its later steps ascending.
	k.utptr = resize(k.utptr, m+1)
	clear(k.utptr)
	for _, s := range k.urow {
		k.utptr[s+1]++
	}
	for s := 0; s < m; s++ {
		k.utptr[s+1] += k.utptr[s]
	}
	k.utcol = resize(k.utcol, len(k.urow))
	k.utval = resize(k.utval, len(k.urow))
	copy(fill, k.utptr[:m])
	for step := 0; step < m; step++ {
		for idx := k.uptr[step]; idx < k.uptr[step+1]; idx++ {
			s := k.urow[idx]
			k.utcol[fill[s]] = int32(step)
			k.utval[fill[s]] = k.uval[idx]
			fill[s]++
		}
	}
	for kk := 0; kk < m; kk++ {
		if k.lptr[kk] < k.lptr[kk+1] {
			k.lsteps = append(k.lsteps, int32(kk))
		}
	}
	k.badSlots, k.colQ, k.rowQ, k.activeCols, k.badRows, k.repairs = badSlots, colQ, rowQ, activeCols, badRows, repairs

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
