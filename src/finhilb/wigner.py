"""Discrete Wigner functions on the N x N affine plane for odd prime N:
parity and phase-point operators, line marginals, state reconstruction,
face-point operators built from MUB projectors, and covariance under the
symplectic group.
"""

import functools

import numpy as np

from . import clifford, combinat, gf, mub, weyl
from .tol import TOL_INPUT, TOL_MATRIX
_MAX_N = 31


def parity_operator(n: int) -> np.ndarray:
    """The permutation sum_i |N-i mod N><i|.

    It squares to the identity, it is the square of the Fourier matrix,
    and it equals the sum of the a = 0 MUB projectors minus the
    identity; all three identities are verified on construction.
    """
    if n == 2 or not gf.is_prime(n):
        raise ValueError("n must be an odd prime")
    a = np.zeros((n, n), dtype=complex)
    a[-np.arange(n) % n, np.arange(n)] = 1.0
    f = combinat.fourier_matrix(n)
    if not np.abs(a @ a - np.eye(n)).max() <= TOL_MATRIX:
        raise RuntimeError("parity operator does not square to identity")
    if not np.abs(f @ f - a).max() <= TOL_MATRIX:
        raise RuntimeError("Fourier squared does not give the parity")
    if n <= _MAX_N:
        total = face_point_operator(mub.subgroup_eigenbases(n),
                                    [0] * (n + 1))
        if not np.abs(total - a).max() <= TOL_MATRIX:
            raise RuntimeError("MUB-projector identity fails for parity")
    return a


def _phase_point_form(n: int):
    """The monomial form (rows, vals) of A_{r,s} = D_{r,s} P D_{r,s}^dag,
    label r*n + s, P: |y> -> |-y>, by gathers on weyl._table_form(n); at
    odd n, A_{r,s}|y> = omega**(2s(r - y)) |2r - y>."""
    rows, vals = weyl._table_form(n)
    # D^dag|y> = conj(vals[x]) |x> with rows[x] = y, and P|x> = |-x>
    k, x = np.arange(n * n)[:, None], np.argsort(rows, axis=1)
    return rows[k, -x % n], vals[k, -x % n] * vals[k, x].conj()


def phase_point_set(n: int) -> np.ndarray:
    """All n^2 phase-point operators A_{r,s} = D_{r,s} A_{0,0} D_{r,s}^dag
    as an (n, n, n, n) array indexed [r, s], written out of
    _phase_point_form(n).  Construction-time checks: Hermitian, squares to
    identity, unit trace, Tr(A_{0,0} A_{r,s}) = n delta, and the parity
    A_{0,0} has eigenvalues -1 and +1 of multiplicities m - 1 and m, n =
    2m - 1."""
    if n > _MAX_N:
        raise ValueError("n too large")
    a00 = parity_operator(n)
    pps = weyl._densify(*_phase_point_form(n)).reshape(n, n, n, n)
    herm = np.abs(pps - pps.conj().transpose(0, 1, 3, 2)).max()
    invol = np.abs(pps @ pps - np.eye(n)).max()
    tr_dev = np.abs(np.einsum("rsaa->rs", pps) - 1.0).max()
    ortho = np.einsum("ab,rsba->rs", a00, pps)
    ortho[0, 0] -= n
    ortho_dev = np.abs(ortho).max()
    m = (n + 1) // 2
    spec = np.abs(np.linalg.eigvalsh(a00) - np.repeat([-1, 1], [m - 1, m]))
    # np.max keeps a NaN that Python's max would drop
    worst = np.max([herm, invol, tr_dev, ortho_dev, spec.max()])
    if not worst <= TOL_MATRIX:
        raise RuntimeError("phase-point invariants violated: %g" % worst)
    pps.setflags(write=False)
    return pps


def random_density(rng, n: int) -> np.ndarray:
    """Full-rank density matrix Z Z^dag / Tr, Z complex Ginibre from rng."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def wigner_function(rho, pps) -> np.ndarray:
    """W_{r,s} = Tr(A_{r,s} rho) / n for a Hermitian unit-trace rho."""
    rho = np.asarray(rho, dtype=complex)
    n = pps.shape[0]
    if rho.shape != (n, n):
        raise ValueError("dimension mismatch")
    if not np.abs(rho - rho.conj().T).max() <= TOL_INPUT:
        raise ValueError("rho is not Hermitian")
    if not abs(np.trace(rho) - 1.0) <= TOL_INPUT:
        raise ValueError("rho does not have unit trace")
    w = np.einsum("rsij,ji->rs", pps, rho) / n
    return w.real


def reconstruct_state(w, pps) -> np.ndarray:
    """Invert wigner_function: rho = sum_{r,s} W_{r,s} A_{r,s}."""
    return np.einsum("rs,rsij->ij", np.asarray(w), pps)


def roundtrip(rho, pps):
    """The Wigner table W of rho and its deviations `total`, |sum W - 1|,
    and `roundtrip`, max |sum W_{r,s} A_{r,s} - rho|."""
    w = wigner_function(rho, pps)
    return w, {"total": abs(float(w.sum()) - 1.0), "roundtrip": float(
        np.max(np.abs(reconstruct_state(w, pps) - rho)))}


def invariants(n: int, rng) -> dict:
    """Phase-point deviations in report order, each an np.max fold that
    keeps a NaN: Gram orthogonality, roundtrip of a density matrix from
    rng, line_map, and covariance under SL(2, Z_n), or under 50 elements
    drawn from rng after the density matrix when n > 3."""
    pps = phase_point_set(n)
    gram = pps.reshape(n * n, n * n) @ pps.transpose(0, 1, 3, 2).reshape(
        n * n, n * n).T
    # Tr(A_a A_b) / n - delta_ab in place: no second n^4 array
    gram /= n
    gram.ravel()[::n * n + 1] -= 1
    rho = random_density(rng, n)
    gs = clifford.sl2_enumerate(n)
    if n > 3:
        gs = gs[rng.choice(len(gs), size=50, replace=False)]
    return {"orthogonality": float(np.max(np.abs(gram))),
            "roundtrip": roundtrip(rho, pps)[1]["roundtrip"],
            "line_map": float(np.max([e["max_residual"]
                                      for e in mub_line_map(pps)])),
            "covariance": float(np.max(covariance_residuals(n, gs)))}


@functools.lru_cache(maxsize=16)
def _line_table(n: int) -> np.ndarray:
    """Every line as read-only index arrays (v1, v2), shape (2, n + 1, n,
    n): entry (k, c, t) is base_c + t d_k on the line d2 v1 - d1 v2 = c,
    with d_k = mub.directions(n)[k] and base_c = (c, 0) when d2 = 1,
    (0, c) on the pencil (-1, 0).  The walk needs inverses mod n, so n
    must be prime."""
    if not gf.is_prime(n):
        raise ValueError("lines need a prime n, got %d" % n)
    d1, d2 = np.array(mub.directions(n)).T[:, :, None, None]
    c, t = np.ogrid[:n, :n]
    pts = np.stack([c * d2 + t * d1, c * (1 - d2) + t * d2]) % n
    pts.setflags(write=False)
    return pts


def _line(n: int, direction, c: int) -> np.ndarray:
    """(v1, v2) of the line d2 v1 - d1 v2 = c in walking order base + t d.
    d is mu d_k for a pencil direction d_k, so this is line c / mu of
    pencil k walked in steps of mu."""
    d1, d2 = direction[0] % n, direction[1] % n
    if d1 == 0 and d2 == 0:
        raise ValueError("zero direction")
    k, mu = (d1 * pow(d2, n - 2, n) % n, d2) if d2 else (n, -d1 % n)
    return _line_table(n)[:, k, c * pow(mu, n - 2, n) % n,
                          mu * np.arange(n) % n]


def _walk_sum(a, v1, v2):
    """sum over t of a[v1[..., t], v2[..., t]], added in walking order t =
    0, 1, ... from zero as Python's sum would."""
    out = 0.0
    for t in range(v1.shape[-1]):
        out = out + a[v1[..., t], v2[..., t]]
    return out


def line_points(n: int, direction, c: int):
    """Points (v1, v2) of the line d2 v1 - d1 v2 = c (mod n)."""
    return list(zip(*_line(n, direction, c).tolist()))


def line_average(pps, direction, c: int) -> np.ndarray:
    """(1/n) sum of phase-point operators along one line; a rank-one
    MUB projector."""
    n = pps.shape[0]
    return _walk_sum(pps, *_line(n, direction, c)) / n


def line_sums(w, pencil: int) -> np.ndarray:
    """Sums of the Wigner table along the n parallel lines of one
    pencil; a probability vector for a valid state."""
    w = np.asarray(w)
    n = w.shape[0]
    if not 0 <= pencil <= n:
        raise ValueError("invalid pencil")
    return _walk_sum(w, *_line_table(n)[:, pencil])


def mub_line_map(pps) -> list:
    """Compare the average over line c of pencil k with the projector
    onto column c of basis k of mub.subgroup_eigenbases(n), for every k
    and c.

    Returns, per pencil direction, a dict with the basis index and the
    worst residual.  Raises if some line misses its projector.
    """
    n = pps.shape[0]
    dirs = mub.directions(n)
    # axes (k, c, i, j): the average over line c of pencil k
    projs = _walk_sum(pps, *_line_table(n)) / n
    # axes (k, c, i): column c of basis k
    v = mub.subgroup_eigenbases(n).transpose(0, 2, 1)
    res = np.abs(projs - v[..., :, None] * v.conj()[..., None, :]).max(
        axis=(2, 3))
    # written so that a NaN residual is a miss
    miss = np.argwhere(~(res <= TOL_MATRIX))
    if miss.size:
        k, c = miss[0]
        raise RuntimeError("line %s,%d misses its MUB projector"
                           % (dirs[k], c))
    return [{"direction": d, "basis": k, "max_residual": float(res[k].max())}
            for k, d in enumerate(dirs)]


def face_point_operator(mubs, choice) -> np.ndarray:
    """A_f = sum over bases of the chosen projector, minus identity."""
    mats = [np.asarray(b, dtype=complex) for b in mubs]
    n = mats[0].shape[0]
    if len(choice) != len(mats):
        raise ValueError("need one chosen vector per basis")
    out = -np.eye(n, dtype=complex)
    for b, j in zip(mats, choice):
        v = b[:, j]
        out += np.outer(v, v.conj())
    return out


def covariance_residuals(n: int, gs) -> np.ndarray:
    """Per G in gs, the residual of U_G A_a U_G^dag = A_{Ga} with no free
    phase: clifford.normalizer_residual on _phase_point_form(n)."""
    form = _phase_point_form(n)
    return np.array([clifford.normalizer_residual(g, n, form) for g in gs])
