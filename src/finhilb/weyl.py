"""Clock-and-shift operators and the displacement operator basis.

Conventions, fixed once for the whole package:

* ``omega = exp(2*pi*i/N)`` and ``tau = -exp(i*pi/N)``, so tau**2 = omega.
* ``D_{r,s} = tau**(r*s) X**r Z**s`` where ``Z|i> = omega**i |i>`` and
  ``X|i> = |i+1 mod N>``.
* Index arithmetic lives modulo ``nbar(N)`` = N for odd N, 2N for even N;
  all phase exponents are reduced as exact integers before any floating
  evaluation, which keeps residuals at the 1e-15 level.
* Every displacement, over Z_N or GF(p^K), is monomial.  One builder turns
  a batch of labels into that (row, phase) form; each dense matrix here
  writes it out, and the group-law check reads the dense table back.

The finite-field variants label displacements by elements of GF(p^K),
each given as its enumeration index in :mod:`finhilb.gf`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf

MAX_DIM = 64


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
    return displacement(n, 0, 1), displacement(n, 1, 0)


def displacement(n: int, r: int, s: int) -> np.ndarray:
    """D_{r,s} = tau**(r*s) X**r Z**s; indices may be any integers and are
    reduced internally (the phase uses the full product r*s mod nbar)."""
    return _densify(*_standard_form(n, np.array([r]), np.array([s])))[0]


@functools.lru_cache(maxsize=16)
def displacement_table(n: int) -> np.ndarray:
    """All N^2 standard displacements stacked as shape (N*N, N, N); entry
    r*N + s is D_{r,s}.  Cached; treat as read-only."""
    if n > 32:
        raise ValueError("displacement table capped at 32")
    out = _densify(*_table_form(n))
    out.setflags(write=False)
    return out


def _table_form(n: int):
    """The monomial form of displacement_table(n), rows and vals (N*N, N)."""
    return _standard_form(n, *np.divmod(np.arange(n * n), n))


def _standard_form(n, r, s):
    """The monomial form of D_{r,s} for integer arrays r, s of shape (K,)."""
    if n < 2 or n > MAX_DIM:
        raise ValueError("dimension out of range")
    x = np.arange(n)
    return _form(n, (x + r[:, None]) % n, r * s, x * s[:, None])


def _form(m, rows, tau_exp, omega_exp):
    """Monomial form of K displacements: D_k[rows[k, x], x] = vals[k, x] =
    tau**tau_exp[k] omega**omega_exp[k, x], tau and omega of modulus m."""
    # one scalar tau_power per label: on an array it can differ by an ulp
    taus = np.array([tau_power(m, a) for a in tau_exp.tolist()])
    return rows, taus[:, None] * gf.roots_of_unity(m)[omega_exp % m]


def _dense_form(mats):
    """Rows and values of each column's largest entry of (K, N, N)
    matrices, and the largest modulus off that support; NaN propagates."""
    mag = np.abs(mats)
    rows = np.argmax(mag, axis=1)
    vals = np.take_along_axis(mats, rows[:, None, :], axis=1)[:, 0]
    np.put_along_axis(mag, rows[:, None, :], 0.0, axis=1)
    return rows, vals, mag.max()


def _densify(rows, vals):
    """The (K, N, N) dense matrices of a monomial form."""
    out = np.zeros(rows.shape + rows.shape[1:], dtype=complex)
    out[np.arange(len(rows))[:, None], rows, np.arange(rows.shape[1])] = vals
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
    rows, vals, res = _dense_form(table)
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
    """
    # a negative index would wrap silently in the gathers below
    if not (0 <= u1 < spec.order and 0 <= u2 < spec.order):
        raise ValueError("field element index out of range")
    return _densify(*_field_form(spec, np.array([u1]), np.array([u2])))[0]


def _field_form(spec, u1, u2):
    """The monomial form of D_u for index arrays u1, u2 of shape (K,)."""
    p, digits = spec.p, gf.digit_table(spec)
    # tr(x y) = cx . G . cy mod p, G the symmetric trace form
    c1, g2 = digits[u1], (digits[u2] @ gf.trace_form(spec)) % p
    rows = gf._index(spec, digits + c1[:, None])
    return _form(p, rows, (c1 * g2).sum(axis=1) % p, g2 @ digits.T)


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
    p, k, q = spec.p, spec.k, spec.order
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
        rhs = functools.reduce(np.kron, _densify(*_standard_form(
            p, dual_digits[u1], basis_digits[u2])))
        res = np.abs(lhs - rhs).max()
        if p == 2:
            res = min(res, np.abs(lhs + rhs).max())
        # np.maximum keeps a NaN that Python's max would drop
        worst = float(np.maximum(worst, res))
    report = {"max_residual": worst, "pairs_checked": len(pairs),
              "phase_minimized": p == 2}
    return S, report
