"""Projective and unitary t-design diagnostics: moment tests against
the Fubini-Study average, Welch bounds, and the lower bound on
tight-design sizes.

Vector families are (K, n) arrays with rows as vectors.
"""

import math
import sys

import numpy as np

from . import combinat
from .tol import TOL_INPUT, TOL_MATRIX, TOL_OVERLAP


def _as_family(vectors, t):
    """A finite (K, n) complex family, for t >= 1 with C(n+t-1, t) a float."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError("expected a (K, n) array of row vectors")
    if not np.isfinite(v).all():
        raise ValueError("family has non-finite entries")
    if t < 1:
        raise ValueError("t must be positive")
    if math.comb(v.shape[1] + t - 1, t) > sys.float_info.max:
        raise ValueError("t is too large: C(n+t-1, t) overflows a float")
    return v


def _check_unit_norms(v):
    norms = np.linalg.norm(v, axis=1)
    if not np.abs(norms - 1.0).max() <= TOL_MATRIX:
        raise ValueError("family vectors are not unit norm")


def _moments(v, ts):
    """[sum_{I,J} |<I|J>|^{2s} for s in ts] and sum_I <I|I>^ts[-1], in one
    pass over blocks of the Gram: columns of max(1, 2^22 // K) vectors from
    lo against rows from lo, at most 2^22 entries or one column, so K <=
    2048 is one block.  The Gram is Hermitian: rows above lo are skipped,
    rows past the block's columns count twice."""
    width = max(1, 2 ** 22 // len(v))
    vc, sums, diag = v.conj(), [0.0] * len(ts), 0.0
    for lo in range(0, len(v), width):
        g = vc[lo:] @ v[lo:lo + width].T
        g2 = np.abs(g) ** 2
        for i, s in enumerate(ts):
            p = g2 ** s
            sums[i] += float(p[:width].sum()) + 2 * float(p[width:].sum())
        diag += float((np.diagonal(g).real ** ts[-1]).sum())
    return sums, diag


def design_target(n: int, t: int) -> float:
    """The Fubini-Study moment t!(n-1)!/(n-1+t)! = 1/C(n+t-1, t) that a
    t-design attains."""
    return 1.0 / math.comb(n + t - 1, t)


def design_test(vectors, t: int, tol: float = TOL_OVERLAP) -> dict:
    """Moment criterion: the family is a t-design iff the 2t-th overlap
    moment equals the Fubini-Study value; `deviation` is |value - target|,
    and `isDesign` holds when it is at most tol."""
    v = _as_family(vectors, t)
    _check_unit_norms(v)
    n = v.shape[1]
    # up to t = 3 the lower moments ride along in the one Gram pass; above,
    # only a passing family pays a second pass for its t - 1 powers
    sums = _moments(v, list(range(1, t + 1)) if t <= 3 else [t])[0]
    value = sums[-1] / len(v) ** 2
    target = design_target(n, t)
    deviation = abs(value - target)
    is_design = deviation <= tol
    if is_design and t > 1:
        # a t-design is automatically a t'-design for all t' < t; below
        # TOL_MATRIX a lower moment differs from its target by rounding
        lower = sums[:-1] if t <= 3 else _moments(v, list(range(1, t)))[0]
        for s, total in enumerate(lower, 1):
            if not abs(total / len(v) ** 2
                       - design_target(n, s)) <= max(tol, TOL_MATRIX):
                raise RuntimeError("a %d-design that is not a %d-design"
                                   % (t, s))
    return {"value": value, "target": target, "deviation": deviation,
            "isDesign": is_design}


def welch_bound(vectors, t: int) -> dict:
    """lhs = C(n+t-1, t) sum |<I|J>|^{2t} against rhs = (sum <I|I>^t)^2;
    lhs >= rhs for any family, with equality exactly on t-designs of unit
    vectors.  Both grow as K^2: relative_slack is slack / max(1, rhs)."""
    v = _as_family(vectors, t)
    (total,), diag = _moments(v, [t])
    lhs = math.comb(v.shape[1] + t - 1, t) * total
    rhs = diag ** 2
    slack = lhs - rhs
    relative = slack / max(1.0, rhs)
    if relative < -1e-10:
        raise RuntimeError("Welch bound violated: slack %g" % slack)
    return {"lhs": lhs, "rhs": rhs, "slack": slack,
            "relative_slack": relative}


def tight_bound(n: int, t: int) -> int:
    """Minimum number of vectors a t-design in dimension n can have:
    C(n + ceil(t/2) - 1, ceil(t/2)) * C(n + floor(t/2) - 1, floor(t/2))."""
    if t < 1:
        raise ValueError("t must be positive")
    hi, lo = (t + 1) // 2, t // 2
    return math.comb(n + hi - 1, hi) * math.comb(n + lo - 1, lo)


def unitary_design_moment(unitaries, t: int) -> dict:
    """(1/K^2) sum_{I,J} |Tr U_I^dag U_J|^{2t} against the Haar moment:
    t! for t <= n, (2t)!/(t!(t+1)!) for n = 2; other cases have no
    closed form here."""
    mats = [np.asarray(u, dtype=complex) for u in unitaries]
    if not mats:
        raise ValueError("empty family")
    n = mats[0].shape[0]
    for u in mats:
        if u.shape != (n, n):
            raise ValueError("mixed dimensions")
        combinat.check_unitary(u, TOL_INPUT)
    if t < 1:
        raise ValueError("t must be positive")
    if t <= n:
        target = float(math.factorial(t))
    elif n == 2:
        target = math.factorial(2 * t) / (
            math.factorial(t) * math.factorial(t + 1))
    else:
        raise ValueError("moment formula out of table")
    flat = np.array([u.reshape(n * n) for u in mats])
    return {"value": _moments(flat, [t])[0][0] / len(flat) ** 2,
            "target": target}
