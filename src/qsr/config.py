"""Shared numerical tolerances, read by every construction-time check of the library."""

INVARIANT_TOL = 1e-10  # construction-time checks: norms, hermiticity, isometry defect
DERIVED_TOL = 1e-9  # equalities that hold analytically but pass through floating point
EIGENVALUE_CLAMP = 1e-12  # eigenvalues below this are exact zeros (eigensolvers emit tiny negatives)
