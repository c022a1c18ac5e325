"""The package's check tolerances, one name per row of the README's
tolerance table.  A threshold with a single use and a reason of its own
stays next to that use."""

# matrix identities: orthogonality, group law, Gram = I, covariance
TOL_MATRIX = 1e-10
# MUB unbiasedness, design moments, Welch slack
TOL_OVERLAP = 1e-9
# SIC cross-Gram moduli
TOL_SIC_GRAM = 1e-8
# search success: f_sic at a fiducial
TOL_SEARCH = 1e-12
# input gates: unit norm, Hermitian, unit trace, unitarity, Hadamard
TOL_INPUT = 1e-8
