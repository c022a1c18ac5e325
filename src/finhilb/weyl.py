"""Clock-and-shift operators and the displacement operator basis.

Conventions, fixed once for the whole package:

* ``omega = exp(2*pi*i/N)`` and ``tau = -exp(i*pi/N)``, so tau**2 = omega.
* ``D_{r,s} = tau**(r*s) X**r Z**s`` where ``Z|i> = omega**i |i>`` and
  ``X|i> = |i+1 mod N>``.
* Index arithmetic lives modulo ``nbar(N)`` = N for odd N, 2N for even N;
  all phase exponents are reduced as exact integers before any floating
  evaluation, which keeps residuals at the 1e-15 level.
* Every displacement, over Z_N or GF(p^K), is monomial.  One builder turns
  a batch of labels into that (row, phase) form, and one helper takes
  Kronecker products of Z_p forms; each dense matrix here writes a form
  out, and one group-law kernel checks both groups on it.
* ``metaplectic(G, N)`` is Appleby's Clifford unitary of G in SL(2,
  Z_nbar(N)): ``U_G D_p U_G^dag = D_{Gp}`` up to phase, for every N.

The finite-field variants label displacements by elements of GF(p^K),
each given as its enumeration index in :mod:`finhilb.gf`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import gf

MAX_DIM = 64
# entries per array of a group-law block, the budget of sic._block_rows
_LAW_BLOCK = 2 ** 16


def nbar(n: int) -> int:
    return n if n % 2 else 2 * n


def metaplectic(g, n: int) -> np.ndarray:
    """U_G for G = [[alpha, beta], [gamma, delta]] in SL(2, Z_nbar(N)), 2 <= N
    <= 32 (Appleby 2005).  For beta a unit mod nbar, U[r, s] = tau**(beta^-1
    (alpha s^2 - 2 r s + delta r^2)) / sqrt(N).  Otherwise G = (G L_x J)
    (J^-1 L_-x) with L_x = [[1, 0], [x, 1]], J = [[0, -1], [1, 0]] and x the
    first with alpha + beta x a unit; both factors have a unit beta."""
    if not 2 <= n <= 32:
        raise ValueError("metaplectic dimension must be between 2 and 32")
    m = nbar(n)
    a, b, c, d = (int(x) % m for x in np.ravel(g))
    if (a * d - b * c) % m != 1:
        raise ValueError("not a symplectic matrix mod %d" % m)
    if math.gcd(b, m) == 1:
        r, s = np.indices((n, n))
        e = pow(b, -1, m) * (a * s * s - 2 * r * s + d * r * r) % m
        # tau**e = exp(2 pi i k / nbar) with k = (N + 1) nbar / (2N) e
        return gf.roots_of_unity(m)[(n + 1) * m // (2 * n) * e % m] \
            / np.sqrt(n)
    x = next(x for x in range(m) if math.gcd(a + b * x, m) == 1)
    return metaplectic([[b, -a - b * x], [d, -c - d * x]], n) \
        @ metaplectic([[-x, 1], [-1, 0]], n)


def tau_power(n: int, m: int) -> complex:
    """tau**m with tau = -exp(i*pi/n), evaluated from the exact integer
    exponent reduced mod nbar(n); elementwise for an integer array m."""
    m = m % nbar(n)
    return (-1.0) ** m * np.exp(1j * np.pi * m / n)


def _omega_power(n, m):
    return np.exp(2j * np.pi * (m % n) / n)


def displacement(n: int, r: int, s: int) -> np.ndarray:
    """D_{r,s} = tau**(r*s) X**r Z**s; indices may be any integers and are
    reduced internally (the phase uses the full product r*s mod nbar)."""
    return _densify(*_standard_form(n, np.array([r]), np.array([s])))[0]


def displacement_table(n: int) -> np.ndarray:
    """All N^2 standard displacements stacked as shape (N*N, N, N); entry
    r*N + s is D_{r,s}.  A fresh array, written out of _table_form(n) on
    each call."""
    return _densify(*_table_form(n))


@functools.lru_cache(maxsize=16)
def _table_form(n: int):
    """The monomial form of displacement_table(n), rows and vals (N*N, N),
    for 2 <= N <= 32; cached and read-only, the one cached Z_N basis."""
    if n > 32:
        raise ValueError("displacement table capped at 32")
    form = _standard_form(n, *np.divmod(np.arange(n * n), n))
    for a in form:
        a.setflags(write=False)
    return form


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


def _tensor_form(p, x, z):
    """The monomial form, rows and vals (K, p^k), of the K tensor products
    D_{x[j, 0], z[j, 0]} (x) ... (x) D_{x[j, k-1], z[j, k-1]} of Z_p
    displacements, for (K, k) label arrays x, z.  Column y, digits y_i
    with factor 1 leading, takes row sum_i row_i[y_i] p^(k-1-i) and value
    prod_i val_i[y_i]."""
    n, k = x.shape
    rows, vals = _standard_form(p, x.ravel(), z.ravel())
    y = np.arange(k), np.indices((p,) * k).reshape(k, -1).T
    radix = p ** np.arange(k - 1, -1, -1)
    return (rows.reshape(n, k, p)[:, y[0], y[1]] @ radix,
            np.prod(vals.reshape(n, k, p)[:, y[0], y[1]], axis=-1))


def _densify(rows, vals):
    """The (K, N, N) dense matrices of a monomial form."""
    out = np.zeros(rows.shape + rows.shape[1:], dtype=complex)
    out[np.arange(len(rows))[:, None], rows, np.arange(rows.shape[1])] = vals
    return out


def group_law_max_residual(n: int) -> float:
    """Max-entry distance from both forms of the composition law, D_p D_q
    = tau**Omega(p,q) D_{p+q} = omega**Omega D_q D_p with Omega(p, q) =
    p2*q1 - p1*q2, over all N^2 x N^2 standard index pairs, read from the
    cached monomial form _table_form(n)."""
    return _monomial_group_law_residual((*_table_form(n), 0.0),
                                        _table_law(n), n)


def _table_law(n):
    """The label arithmetic of Z_N for _monomial_group_law_residual, one
    block of first labels a = (r1, 0..N-1) at a time."""
    r, s = np.divmod(np.arange(n * n), n)
    sa = np.arange(n)[:, None]
    for r1 in range(n):
        rsum, ssum = r1 + r, sa + s
        om = sa * r - r1 * s
        e = om + rsum * ssum - (rsum % n) * (ssum % n)
        yield r1 * n + sa, (rsum % n) * n + ssum % n, e % nbar(n), om % n


def _monomial_group_law_residual(form, law, m, signed=False) -> float:
    """Max-entry group-law residual of the monomial form (rows, vals, res)
    of all L labels, res the largest modulus off the support.

    law yields blocks (a, c, e, om): first labels a of shape (B, 1), and
    per pair (a, b) the label c of a + b and the reduced exponents of
    D_a D_b = tau**e D_c = omega**om D_b D_a, tau and omega of modulus m;
    with signed each pair's tau residual is minimized over the sign.
    (D_a D_b)[:, j] = val_a[row_b[j]] val_b[j] |row_a[row_b[j]]>.  NaN
    propagates to the result.
    """
    rows, vals, res = form
    n = rows.shape[1]
    taus = tau_power(m, np.arange(nbar(m)))
    omegas = _omega_power(m, np.arange(m))
    # a law block is split along its first labels so that every array
    # holds B L N <= _LAW_BLOCK entries, and products are taken in place:
    # a fresh B L N array costs its page faults
    step = max(1, _LAW_BLOCK // rows.size)
    for a, c, e, om in ([x[j:j + step] for x in block] for block in law
                        for j in range(0, len(block[0]), step)):
        k = rows + n * a[..., None]
        ab_row, ab_val = rows.ravel()[k], vals.ravel()[k]
        ab_val *= vals
        t = vals[c]
        np.multiply(taus[e][..., None], t, out=t)
        res = np.maximum(res, _distance(ab_row, ab_val, rows[c], t, signed))
        k = rows[a] + n * np.arange(len(rows))[:, None]
        t = vals.ravel()[k]
        np.multiply(omegas[om][..., None], t, out=t)
        t *= vals[a]
        res = np.maximum(res, _distance(ab_row, ab_val, rows.ravel()[k], t))
    return float(res)


def _distance(rows, vals, t_rows, t_vals, signed=False):
    """Max-entry distance of two monomial stacks, |difference| where rows
    agree, else the larger modulus; with signed, each pair's (last axis)
    distance to t or to -t, whichever is smaller.  Reuses t_vals."""
    miss = rows != t_rows
    worse = np.maximum(np.abs(vals[miss]), np.abs(t_vals[miss]))
    flip = np.abs(t_vals + vals) if signed else None
    dist = np.abs(np.subtract(t_vals, vals, out=t_vals))
    dist[miss] = worse
    if flip is None:
        return dist.max()
    flip[miss] = worse
    return np.minimum(dist.max(axis=-1), flip.max(axis=-1)).max()


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


def expansion(A):
    """expand_operator(A) and its deviation `reconstruction`, max |sum_{r,s}
    a_{r,s} D_{r,s} - A|."""
    coef = expand_operator(A)
    return coef, {"reconstruction": float(np.max(np.abs(
        reconstruct_operator(coef) - A)))}


# -- finite-field displacements ---------------------------------------------

def _field_form(spec, u1, u2):
    """The monomial form of D_u = tau**tr(u1 u2) X_{u1} Z_{u2}, i.e. D_u |x>
    = tau**tr(u1 u2) omega**tr(x u2) |x + u1>, for index arrays u1, u2 of
    shape (K,), tau = -exp(i*pi/p) and omega = exp(2*pi*i/p)."""
    p, digits = spec.p, gf.digit_table(spec)
    # tr(x y) = cx . G . cy mod p, G the symmetric trace form
    c1, g2 = digits[u1], (digits[u2] @ gf.trace_form(spec)) % p
    rows = gf._index(spec, digits + c1[:, None])
    return _form(p, rows, (c1 * g2).sum(axis=1) % p, g2 @ digits.T)


def _field_labels(spec):
    """All q^2 labels u = (u1, u2), entry u1*q + u2."""
    return np.divmod(np.arange(spec.order ** 2), spec.order)


def field_group_law_max_residual(spec) -> float:
    """group_law_max_residual over GF(q), q <= 32: D_u D_v = tau**<u,v>
    D_{u+v} = omega**<u,v> D_v D_u with <u, v> = tr(v1 u2) - tr(u1 v2) mod
    p.  At p = 2, tau = -i has order four while traces are residues mod 2,
    so each pair's tau residual is minimized over the overall sign."""
    if spec.order > 32:
        raise ValueError("field group law capped at q = 32")
    form = _field_form(spec, *_field_labels(spec))
    return _monomial_group_law_residual((*form, 0.0), _field_law(spec),
                                        spec.p, signed=spec.p == 2)


def _field_law(spec):
    """The label arithmetic of GF(q), one block a = (a1, 0..q-1) at a time."""
    q, x = spec.order, np.arange(spec.order)[:, None]
    add = gf.add(spec, x, x.T)
    trace = gf.field_trace(spec, gf.mul(spec, x, x.T))  # tr(x y)
    v1, v2 = _field_labels(spec)
    for a1 in range(q):
        e = (trace[v1, x] - trace[a1, v2]) % spec.p
        yield a1 * q + x, add[a1, v1] * q + add[x, v2], e, e


def tensor_isomorphism(spec):
    """Permutation unitary S with S|x> = |x_1> ... |x_K>, x_i = tr(x * dual_i),
    plus a report verifying that displacements factor through S as tensor
    products of p-dimensional displacements.

    Factor i of D_(u1,u2) carries indices (tr(u1*dual_i), tr(u2*e_i)),
    with e_i = a^i the powers of the generator and dual_i their trace
    dual basis.  Every one of the q^2 displacements is checked on monomial
    forms.  Returns (S, report); for p = 2 report["max_residual"] is
    minimized per displacement over the overall sign.
    """
    p, k, q = spec.p, spec.k, spec.order
    basis = [p ** d for d in range(k)]
    dual = gf.dual_basis(spec, basis)
    x = np.arange(q)[:, None]
    # row x, column i: tr(x * dual_i) and tr(x * e_i)
    dual_digits = gf.field_trace(spec, gf.mul(spec, x, dual))
    basis_digits = gf.field_trace(spec, gf.mul(spec, x, basis))
    radix = p ** np.arange(k - 1, -1, -1)
    perm = dual_digits @ radix
    S = np.zeros((q, q), dtype=complex)
    S[perm, np.arange(q)] = 1.0
    u1, u2 = _field_labels(spec)
    # S D_u S^dag: the form with its rows and columns relabelled by perm
    rows, vals = _field_form(spec, u1, u2)
    inv = np.argsort(perm)
    rows, vals = perm[rows[:, inv]], vals[:, inv]
    t_rows, t_vals = _tensor_form(p, dual_digits[u1], basis_digits[u2])
    report = {"max_residual": float(_distance(rows, vals, t_rows, t_vals,
                                              signed=p == 2)),
              "pairs_checked": q * q, "phase_minimized": p == 2}
    return S, report
