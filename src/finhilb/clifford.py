"""The symplectic group SL(2, Z_p), its metaplectic unitary
representation for odd primes, displacement-normalizer checks, and
order-3 symmetry scans for candidate fiducial vectors.

Group elements are (2, 2) integer arrays [[alpha, beta], [gamma, delta]]
reduced mod p with unit determinant.
"""

import numpy as np

from . import gf, weyl


def _check_odd_prime(p):
    if not gf.is_prime(p):
        raise ValueError("p must be prime")
    if p == 2:
        raise ValueError("p must be odd")


def sl2_enumerate(p: int):
    """All elements of SL(2, Z_p); the count is p(p^2 - 1)."""
    _check_odd_prime(p)
    if p > 31:
        raise ValueError("p too large for exhaustive enumeration")
    # every (a, b, c, d) in lexicographic order, kept where ad - bc = 1
    a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
    keep = (a * d - b * c) % p == 1
    out = list(np.stack([a, b, c, d], axis=1)[keep].reshape(-1, 2, 2))
    if len(out) != p * (p * p - 1):
        raise RuntimeError("SL(2, Z_%d) has %d elements, expected %d"
                           % (p, len(out), p * (p * p - 1)))
    return out


def sl2_apply(g, point, p: int):
    """Image of a phase-space point (r, s) under G; r and s may be
    integer arrays of one shape."""
    r, s = point
    a, b, c, d = int(g[0, 0]), int(g[0, 1]), int(g[1, 0]), int(g[1, 1])
    return ((a * r + b * s) % p, (c * r + d * s) % p)


def metaplectic(g, p: int) -> np.ndarray:
    """Unitary representing G in SL(2, Z_p), p odd prime.

    For beta != 0:  (1/sqrt(p)) sum_ij omega^((delta i^2 - 2ij
    + alpha j^2) / (2 beta)) |i><j|; for beta = 0 the monomial matrix
    sum_j omega^(alpha gamma j^2 / 2) |alpha j><j|.  Global phase fixed
    by taking exactly these formulas; all consumers phase-minimize.
    """
    _check_odd_prime(p)
    g = np.asarray(g) % p
    a, b, c, d = (int(g[0, 0]), int(g[0, 1]), int(g[1, 0]), int(g[1, 1]))
    if (a * d - b * c) % p != 1:
        raise ValueError("not a symplectic matrix mod %d" % p)
    pows = np.exp(2j * np.pi * np.arange(p) / p)
    if b % p == 0:
        inv2 = pow(2, p - 2, p)
        u = np.zeros((p, p), dtype=complex)
        for j in range(p):
            u[(a * j) % p, j] = pows[(inv2 * a * c * j * j) % p]
        return u
    inv2b = pow(2 * b, p - 2, p)
    i = np.arange(p)
    e = (inv2b * (d * np.multiply.outer(i * i, np.ones(p, dtype=int))
                  - 2 * np.multiply.outer(i, i)
                  + a * np.multiply.outer(np.ones(p, dtype=int), i * i))) % p
    return pows[e] / np.sqrt(p)


def normalizer_residual(g, p: int) -> float:
    """Max over phase-space points of the phase-minimized distance
    between U_G D_p U_G^dag and D_{Gp}."""
    u = metaplectic(g, p)
    table = weyl.displacement_table(p).reshape(p, p, p, p)
    moved = u @ table @ u.conj().T
    targets = table[sl2_apply(g, np.indices((p, p)), p)]
    # the phase of the overlap; 1 where the overlap vanishes
    lam = np.exp(1j * np.angle(np.einsum("rsij,rsij->rs", targets.conj(),
                                         moved)))
    return float(np.abs(moved - lam[:, :, None, None] * targets).max())


def order3_elements(p: int):
    """All G in SL(2, Z_p) with G^3 = 1 and G != 1; each has trace
    congruent to -1 mod p."""
    eye = np.eye(2, dtype=int)
    out = []
    for g in sl2_enumerate(p):
        if np.array_equal(g, eye):
            continue
        if np.array_equal((g @ g @ g) % p, eye):
            if (int(g[0, 0]) + int(g[1, 1])) % p != p - 1:
                raise RuntimeError("order-3 element with trace != -1")
            out.append(g)
    return out


def zauner_invariance(psi, g, p: int) -> float:
    """Phase-minimized ||U_G psi - psi|| for one symplectic G."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    u = metaplectic(g, p)
    ov = abs(np.vdot(psi, u @ psi))
    # np.maximum keeps a NaN that Python's max would drop
    return float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * ov)))


def zauner_scan(psi, p: int) -> dict:
    """Scan every order-3 symplectic G together with every displacement
    prefactor D_b and return the smallest phase-minimized invariance
    residual of D_b U_G.  Pure symplectic rotations alone can miss the
    symmetry; the group element stabilizing a given fiducial generally
    carries a displacement part.  A non-finite psi gives a NaN residual.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    rows, vals = weyl._table_form(p)
    found = []
    for g in order3_elements(p):
        phi = metaplectic(g, p) @ psi
        # |<psi|D_b|phi>| for every b, gathered from the monomial form
        ov = np.abs((psi.conj()[rows] * vals) @ phi).reshape(p, p)
        r, s = np.unravel_index(int(np.argmax(ov)), ov.shape)
        res = float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * ov[r, s])))
        found.append({"residual": res, "g": g, "b": (int(r), int(s))})
    # np.argmin returns the first NaN when there is one
    return found[int(np.argmin([f["residual"] for f in found]))]


def clifford_group_single_qubit():
    """The 24 single-qubit Clifford collineation representatives,
    generated from the Hadamard and phase gates with global phases
    deduplicated."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1.0, 1j])

    def canonical(m):
        flat = m.reshape(4)
        for x in flat:
            if abs(x) > 0.1:
                m = m * (x.conjugate() / abs(x))
                break
        return np.round(m.reshape(4), 9) + 0.0

    reps = {tuple(canonical(np.eye(2, dtype=complex))): np.eye(2,
                                                              dtype=complex)}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for m in frontier:
            for gate in (h, s):
                cand = gate @ m
                key = tuple(canonical(cand))
                if key not in reps:
                    reps[key] = cand
                    nxt.append(cand)
        frontier = nxt
    out = list(reps.values())
    if len(out) != 24:
        raise RuntimeError("expected 24 Clifford representatives, got %d"
                           % len(out))
    return out
