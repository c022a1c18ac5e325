"""The symplectic group SL(2, Z_nbar(N)) for every dimension 2 <= N <= 32,
one conjugation check of its unitaries weyl.metaplectic on monomial forms
(the normalizer of the displacements, the covariance of the Wigner phase
points), and order-3 symmetry scans for candidate fiducials.  Group
elements are (2, 2) integer arrays [[alpha, beta], [gamma, delta]] of unit
determinant, reduced mod nbar(N) = N for odd N, 2N for even N.
"""

import numpy as np

from . import gf, weyl


def _check_modulus(m):
    if not 2 <= m <= 64:
        raise ValueError("modulus must be between 2 and 64")


def sl2_order(m: int) -> int:
    """|SL(2, Z_m)| = m^3 prod over primes l | m of (1 - 1/l^2)."""
    out = m ** 3
    for ell in range(2, m + 1):
        if m % ell == 0 and gf.is_prime(ell):
            out = out // ell ** 2 * (ell ** 2 - 1)
    return out


def sl2_enumerate(m: int) -> np.ndarray:
    """All elements of SL(2, Z_m), 2 <= m <= 64, in lexicographic order of
    (alpha, beta, gamma, delta), as an (sl2_order(m), 2, 2) array."""
    _check_modulus(m)
    b, c, d = np.indices((m,) * 3).reshape(3, -1)
    out = []
    for a in range(m):
        k = (a * d - b * c) % m == 1
        out.append(np.stack(np.broadcast_arrays(a, b[k], c[k], d[k]), 1))
    out = np.concatenate(out)
    if len(out) != sl2_order(m):
        raise RuntimeError("SL(2, Z_%d) has %d elements" % (m, len(out)))
    return out.reshape(-1, 2, 2)


def sl2_apply(g, point, p: int):
    """Image of a phase-space point (r, s) under G mod p; r and s may be
    integer arrays of one shape."""
    r, s = point
    a, b, c, d = int(g[0, 0]), int(g[0, 1]), int(g[1, 0]), int(g[1, 1])
    return ((a * r + b * s) % p, (c * r + d * s) % p)


def normalizer_residual(g, n: int, form=None) -> float:
    """Max over points p of |X_{Gp}^dag U X_p - lam_p U|, U =
    weyl.metaplectic(G, N), for the N^2 operators X_p of a monomial form
    (rows, vals) labelled r*N + s, with Gp reduced mod N.  By default X_p =
    D_p, and lam_p absorbs the phase of U D_p U^dag = D_{Gp} and its sign
    at even N; a form given must map exactly, lam_p = 1."""
    u = weyl.metaplectic(g, n)
    rows, vals = weyl._table_form(n) if form is None else form
    r, s = sl2_apply(g, np.divmod(np.arange(n * n), n), n)
    t = r * n + s
    # X_t^dag U X_p by one gather of U: X_t is monomial with unit entries,
    # so its distance from lam U is that of U X_p from lam X_t U.  The index
    # frees above w, not as a hole below it; "clip" writes w unbuffered
    w = np.empty((n * n, n, n), dtype=complex)
    np.take(u, n * rows[t][:, :, None] + rows[:, None, :], out=w, mode="clip")
    w *= vals[t].conj()[:, :, None] * vals[:, None, :]
    # lam_p, the overlap's phase, is 1 where the overlap vanishes
    w -= np.exp(1j * np.angle(np.einsum("ij,kij->k", u.conj(), w)))[
        :, None, None] * u if form is None else u
    return float(np.abs(w).max())


def invariants(n: int, rng) -> dict:
    """Deviations in report order: `normalizer`, an np.max fold (keeping a
    NaN) over SL(2, Z_nbar(N)) or 100 elements of it drawn from rng, and
    `parity`, max |U_{-I} - P| for the parity P: |s> -> |-s>."""
    group = sl2_enumerate(weyl.nbar(n))
    if len(group) > 100:
        group = group[rng.choice(len(group), size=100, replace=False)]
    return {"normalizer": float(np.max([normalizer_residual(g, n)
                                        for g in group])),
            "parity": float(np.max(np.abs(
                weyl.metaplectic(-np.eye(2, dtype=int), n)
                - np.eye(n)[-np.arange(n) % n])))}


def order3_elements(n: int) -> np.ndarray:
    """Every G != 1 in SL(2, Z_nbar(N)) with trace -1, in lexicographic
    order; G^2 + G + 1 = 0 by Cayley-Hamilton, so G^3 = 1."""
    m = weyl.nbar(n)
    _check_modulus(m)
    a, b, c = np.indices((m,) * 3).reshape(3, -1)
    d = (-1 - a) % m
    # the identity has trace -1 only mod 3
    keep = ((a * d - b * c) % m == 1) & ((a != 1) | (b != 0) | (c != 0))
    return np.stack([a, b, c, d], axis=1)[keep].reshape(-1, 2, 2)


def zauner_scan(psi, n: int) -> dict:
    """Scan every order-3 symplectic G together with every displacement
    prefactor D_b and return the smallest phase-minimized invariance
    residual of D_b U_G.  Pure symplectic rotations alone can miss the
    symmetry; the group element stabilizing a given fiducial generally
    carries a displacement part.  A non-finite psi gives a NaN residual."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (n,):
        raise ValueError("expected a fiducial of dimension %d" % n)
    with np.errstate(invalid="ignore"):  # a NaN or inf norm gives NaN psi
        psi = psi / np.linalg.norm(psi)
    rows, vals = weyl._table_form(n)
    # <psi|D_b for every b, gathered from the monomial form
    bras = psi.conj()[rows] * vals
    found = []
    for g in order3_elements(n):
        ov = np.abs(bras @ (weyl.metaplectic(g, n) @ psi)).reshape(n, n)
        r, s = np.unravel_index(int(np.argmax(ov)), ov.shape)
        res = float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * ov[r, s])))
        found.append({"residual": res, "g": g, "b": (int(r), int(s))})
    # np.argmin returns the first NaN when there is one
    return found[int(np.argmin([f["residual"] for f in found]))]


def clifford_group_single_qubit():
    """The 24 single-qubit Clifford collineations D_p U_G, U_G =
    weyl.metaplectic(G, 2): G runs over the first lift in sl2_enumerate(4)
    of each element of SL(2, Z_2), in that order, and p over Z_2^2."""
    group = sl2_enumerate(4)
    _, first = np.unique(group % 2, axis=0, return_index=True)
    return [weyl.displacement(2, r, s) @ weyl.metaplectic(g, 2)
            for g in group[np.sort(first)] for r in range(2) for s in range(2)]
