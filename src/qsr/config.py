"""Shared numerical tolerances: every check of the library reads its rounding slack from here."""

INVARIANT_TOL = 1e-10  # construction-time checks: norms, hermiticity, isometry defect
DERIVED_TOL = 1e-9  # equalities that hold analytically but pass through floating point
EIGENVALUE_CLAMP = 1e-12  # eigenvalues below this are exact zeros (eigensolvers emit tiny negatives)
BOUND_SLACK = 1e-8  # a measured distance may exceed its bound by this (the bound sums square roots of noise)
VANISHING_NORM = 1e-12  # a state of smaller norm has vanished and cannot be normalized
COLLINEAR_TOL = 1e-15  # two vectors whose orthogonal remainder is shorter than this are collinear
