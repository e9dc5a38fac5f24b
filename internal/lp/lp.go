// Package lp is the one linear-programming kernel of the UTK algorithms.
// Every LP the library solves lives over a cell ∩{A_i·w ≥ B_i} of the
// preference domain: the interior point of an arrangement cell, the extremes
// of a linear functional over a cell, the drill vector, and the onion-layer
// membership test of internal/hull. Dimensions are tiny (≤ ~8 variables),
// constraints tens to a few thousand, and one query solves hundreds.
//
// They all run on a condensed (dictionary-form) simplex that starts from a
// point the caller already holds: m slack rows × (dim+1) columns over the
// shift from that point, free variables unsplit, no phase 1 (cell.go,
// polytope.go). It terminates on degenerate problems: the entering variable
// is Bland's, and Harris's ratio test hands the leaving choice to Bland too
// once a degenerate vertex stalls the walk. Rows are scaled to unit norm, so
// tol (the solver's) and SlackEps (the callers') are distances in the
// preference domain; FuzzCellLP holds the kernel to the exact reference in
// internal/exact both ways (README, "Refinement LPs", says what they mean and
// what error was measured).
package lp

const tol = 1e-9
