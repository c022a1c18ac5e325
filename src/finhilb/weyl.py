"""Clock-and-shift operators and the displacement operator basis.

Conventions, fixed once for the whole package:

* ``omega = exp(2*pi*i/N)`` and ``tau = -exp(i*pi/N)``, so tau**2 = omega.
* ``D_{r,s} = tau**(r*s) X**r Z**s`` where ``Z|i> = omega**i |i>`` and
  ``X|i> = |i+1 mod N>``.
* Index arithmetic lives modulo ``nbar(N)`` = N for odd N, 2N for even N;
  all phase exponents are reduced as exact integers before any floating
  evaluation, which keeps residuals at the 1e-15 level.
* Every D_{r,s} is monomial, one nonzero per column.  The group-law check
  reads each table entry in that (row, phase) form, composes products by
  index gathers and counts any entry off that support in its residual.

The finite-field variants label displacements by elements of GF(p^K),
each given as its enumeration index in :mod:`finhilb.gf`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf

MAX_DIM = 64
_MAX_TABLE_DIM = 32


def nbar(n: int) -> int:
    return n if n % 2 else 2 * n


def omega(n: int) -> complex:
    return np.exp(2j * np.pi / n)


def tau_power(n: int, m: int) -> complex:
    """tau**m with tau = -exp(i*pi/n), evaluated from the exact integer
    exponent reduced mod nbar(n); elementwise for an integer array m."""
    m = m % nbar(n)
    return (-1.0) ** m * np.exp(1j * np.pi * m / n)


def _omega_power(n, m):
    return np.exp(2j * np.pi * (m % n) / n)


def clock_shift(n: int):
    """Return (Z, X) in dimension n: Z the clock, X the cyclic shift."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if n > MAX_DIM:
        raise ValueError(f"dimension capped at {MAX_DIM}")
    Z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    X = np.zeros((n, n), dtype=complex)
    X[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return Z, X


def displacement(n: int, r: int, s: int) -> np.ndarray:
    """D_{r,s} = tau**(r*s) X**r Z**s; indices may be any integers and are
    reduced internally (the phase uses the full product r*s mod nbar)."""
    if n < 2 or n > MAX_DIM:
        raise ValueError("dimension out of range")
    ph = tau_power(n, r * s)
    col = np.arange(n)
    D = np.zeros((n, n), dtype=complex)
    D[(col + r) % n, col] = ph * np.exp(2j * np.pi * ((col * s) % n) / n)
    return D


@functools.lru_cache(maxsize=16)
def displacement_table(n: int) -> np.ndarray:
    """All N^2 standard displacements stacked as shape (N*N, N, N); entry
    r*N + s is D_{r,s}.  Cached; treat as read-only."""
    if n > _MAX_TABLE_DIM:
        raise ValueError(f"displacement table capped at {_MAX_TABLE_DIM}")
    out = np.empty((n * n, n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            out[r * n + s] = displacement(n, r, s)
    out.setflags(write=False)
    return out


def symplectic_exponent(p, q) -> int:
    """Omega(p, q) = p2*q1 - p1*q2 for index pairs p = (r, s)."""
    return p[1] * q[0] - p[0] * q[1]


def group_law_residual(n: int, p, q) -> float:
    """Max-entry distance from both forms of the composition law:
    D_p D_q = tau**Omega(p,q) D_{p+q}  and  D_p D_q = omega**Omega D_q D_p.
    """
    Dp = displacement(n, *p)
    Dq = displacement(n, *q)
    lhs = Dp @ Dq
    om = symplectic_exponent(p, q)
    res_a = np.abs(lhs - tau_power(n, om) * displacement(n, p[0] + q[0], p[1] + q[1])).max()
    res_b = np.abs(lhs - _omega_power(n, om) * (Dq @ Dp)).max()
    return float(np.maximum(res_a, res_b))


def group_law_max_residual(n: int) -> float:
    """group_law_residual maximized over all N^2 x N^2 standard index
    pairs, read from the monomial form of ``displacement_table(n)``."""
    return _monomial_group_law_residual(displacement_table(n))


def _monomial_group_law_residual(table) -> float:
    """Max-entry group-law residual of a (N*N, N, N) displacement table.

    Each D_a is read per column as the row and value of its largest
    entry; the largest entry off that support counts in the residual.
    (D_a D_b)[:, j] = val_a[row_b[j]] val_b[j] |row_a[row_b[j]]>.  NaN
    propagates to the result.
    """
    n = table.shape[1]
    mag = np.abs(table)
    rows = np.argmax(mag, axis=1)
    vals = np.take_along_axis(table, rows[:, None, :], axis=1)[:, 0]
    np.put_along_axis(mag, rows[:, None, :], 0.0, axis=1)
    res = mag.max()
    idx = np.arange(n * n)
    r, s = np.divmod(idx, n)
    # one block of a = (r1, 0..N-1) at a time keeps each array at N^4;
    # each product is compared with tau**e D_{a+b} and omega**Omega D_b D_a
    for r1 in range(n):
        sa = np.arange(n)[:, None]
        a = r1 * n + sa
        rsum, ssum = r1 + r, sa + s
        om = sa * r - r1 * s
        c = (rsum % n) * n + ssum % n
        e = om + rsum * ssum - (rsum % n) * (ssum % n)
        ab_row = rows[a[..., None], rows]
        ab_val = vals[a[..., None], rows] * vals
        t_row = np.stack([rows[c], rows[idx[:, None], rows[a]]])
        t_val = np.stack([tau_power(n, e)[..., None] * vals[c],
                          _omega_power(n, om)[..., None]
                          * vals[idx[:, None], rows[a]] * vals[a]])
        # |difference| where the rows of a column agree, else the larger
        # modulus: the max-entry distance of the dense matrices
        dist = np.where(ab_row == t_row, np.abs(ab_val - t_val),
                        np.maximum(np.abs(ab_val), np.abs(t_val)))
        res = np.maximum(res, dist.max())
    return float(res)


def orthogonality_max_residual(n: int) -> float:
    """Max deviation of Tr(D_p^dag D_q) from N*delta_pq over the standard
    N^2 x N^2 grid."""
    ds = displacement_table(n)
    flat = ds.reshape(n * n, n * n)
    gram = flat.conj() @ flat.T
    return float(np.abs(gram - n * np.eye(n * n)).max())


def expand_operator(A) -> np.ndarray:
    """Coefficients a_{r,s} = Tr(D_{r,s}^dag A)/N as an N x N table; the
    reconstruction sum a_{r,s} D_{r,s} recovers A."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    ds = displacement_table(n)
    coef = np.tensordot(ds.conj(), A, axes=([1, 2], [0, 1])) / n
    return coef.reshape(n, n)


def reconstruct_operator(coef) -> np.ndarray:
    coef = np.asarray(coef, dtype=complex)
    n = coef.shape[0]
    ds = displacement_table(n)
    return np.tensordot(coef.reshape(n * n), ds, axes=1)


# -- finite-field displacements ---------------------------------------------

def field_shift(spec, u) -> np.ndarray:
    """X_u |x> = |x + u> over the canonical element order."""
    return field_displacement(spec, u, 0)


def field_clock(spec, u) -> np.ndarray:
    """Z_u |x> = omega**tr(x u) |x> with omega = exp(2*pi*i/p)."""
    return field_displacement(spec, 0, u)


def field_displacement(spec, u1, u2) -> np.ndarray:
    """D_u = tau**tr(u1 u2) X_{u1} Z_{u2} with tau = -exp(i*pi/p), i.e.
    D_u |x> = tau**tr(u1 u2) omega**tr(x u2) |x + u1>, for the element
    indices u1, u2 in [0, q).

    Sign convention for p = 2: tau = -i has order four while traces are
    residues mod 2, so the group law D_u D_v = tau**<u,v> D_{u+v} holds
    only up to sign, and the residual checks of this module minimize over
    that sign.  For odd p every phase is exact.

    Built as one gather from the integer tables of :mod:`finhilb.gf`: the
    row of column x is the index of x + u1, and tr(x u2) is the digit row
    of x times G c2, with G the trace form and c2 the coefficients of u2.
    """
    p, q = spec.p, spec.order
    # a negative index would wrap silently in the gathers below
    if not (0 <= u1 < q and 0 <= u2 < q):
        raise ValueError("field element index out of range")
    digits = gf.digit_table(spec)
    c1 = digits[u1]
    g2 = (gf.trace_form(spec) @ digits[u2]) % p
    rows = ((digits + c1) % p) @ p ** np.arange(spec.k, dtype=np.int64)
    ph = tau_power(p, int(c1 @ g2) % p)
    D = np.zeros((q, q), dtype=complex)
    D[rows, np.arange(q)] = ph * gf.roots_of_unity(p)[(digits @ g2) % p]
    return D


def field_symplectic_exponent(spec, u, v) -> int:
    """<u, v> = tr(u2 v1 - u1 v2), an integer residue mod p."""
    return int(gf.field_trace(spec, gf.mul(spec, u[1], v[0]))
               - gf.field_trace(spec, gf.mul(spec, u[0], v[1]))) % spec.p


def field_group_law_residual(spec, u, v) -> float:
    """Max-entry distance from D_u D_v = tau**<u,v> D_{u+v}, minimized over
    the overall sign when p = 2 (see :func:`field_displacement`)."""
    lhs = field_displacement(spec, *u) @ field_displacement(spec, *v)
    rhs = tau_power(spec.p, field_symplectic_exponent(spec, u, v)) \
        * field_displacement(spec, *gf.add(spec, u, v))
    res = np.abs(lhs - rhs).max()
    if spec.p == 2:
        res = min(res, np.abs(lhs + rhs).max())
    return float(res)


def tensor_isomorphism(spec):
    """Permutation unitary S with S|x> = |x_1> ... |x_K>, x_i = tr(x * dual_i),
    plus a report verifying that displacements factor through S as tensor
    products of p-dimensional displacements.

    Factor i of D_(u1,u2) carries indices (tr(u1*dual_i), tr(u2*e_i)),
    with e_i = a^i the powers of the generator and dual_i their trace
    dual basis.  Every one of the q^2 displacements is checked.  Returns
    (S, report); for p = 2 report["max_residual"] is minimized over the
    overall sign (see :func:`field_displacement`).
    """
    p, k = spec.p, spec.k
    q = spec.order
    basis = [p ** d for d in range(k)]
    dual = gf.dual_basis(spec, basis)
    x = np.arange(q)[:, None]
    # row x, column i: tr(x * dual_i) and tr(x * e_i)
    dual_digits = gf.field_trace(spec, gf.mul(spec, x, dual))
    basis_digits = gf.field_trace(spec, gf.mul(spec, x, basis))
    S = np.zeros((q, q), dtype=complex)
    S[dual_digits @ p ** np.arange(k - 1, -1, -1), np.arange(q)] = 1.0
    pairs = [(u1, u2) for u1 in range(q) for u2 in range(q)]
    worst = 0.0
    for u1, u2 in pairs:
        lhs = S @ field_displacement(spec, u1, u2) @ S.conj().T
        factors = [displacement(p, dual_digits[u1, i], basis_digits[u2, i])
                   for i in range(k)]
        rhs = factors[0]
        for f in factors[1:]:
            rhs = np.kron(rhs, f)
        res = np.abs(lhs - rhs).max()
        if p == 2:
            res = min(res, np.abs(lhs + rhs).max())
        # np.maximum keeps a NaN that Python's max would drop
        worst = float(np.maximum(worst, res))
    report = {"max_residual": worst, "pairs_checked": len(pairs),
              "phase_minimized": p == 2}
    return S, report
