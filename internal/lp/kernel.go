package lp

// basisKernel abstracts the basis-inverse representation behind the
// operations the simplex actually needs. Production solves always use
// the sparse LU kernel (lu.go); the interface lets tests substitute the
// dense B⁻¹ oracle. All vectors are dense scratch owned by the solver;
// "slot" space indexes basic positions (the solver's basis array) and
// "row" space indexes constraint rows — both have length m.
type basisKernel interface {
	// ftranCol computes alpha = B⁻¹ A_e for (sparse) column e.
	ftranCol(e int, alpha []float64)
	// ftranVec computes x = B⁻¹ rhs for a dense right-hand side.
	// rhs is not modified.
	ftranVec(rhs, x []float64)
	// btran computes y = B⁻ᵀ cB (cB in slot space, y in row space),
	// the pricing solve.
	btran(cB, y []float64)
	// update applies the basis change of column e entering at the given
	// slot, with alpha = B⁻¹ A_e already computed. It reports whether
	// the kernel wants a refactorization (eta-file growth, small pivot).
	update(slot, e int, alpha []float64) bool
	// refactor rebuilds the representation from the basis columns.
	// Kernels that cannot (the dense test oracle, which is built
	// incrementally) return ok = false. Each repairs entry is a
	// (slot, row) pair whose basis column proved (near-)singular: the
	// kernel has patched that slot with the unit column of the row, and
	// the caller must install the matching slack into its basis.
	refactor(basis []int32) (repairs [][2]int32, ok bool)
}
