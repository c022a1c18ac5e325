"""Discrete Wigner functions on the N x N affine plane for odd prime N:
parity and phase-point operators, line marginals, state reconstruction,
face-point operators built from MUB projectors, and covariance under the
symplectic group.
"""

import numpy as np

from . import clifford, combinat, mub, weyl
from .tol import TOL_MATRIX
_MAX_N = 31


def parity_operator(n: int) -> np.ndarray:
    """The permutation sum_i |N-i mod N><i|.

    It squares to the identity, it is the square of the Fourier matrix,
    and it equals the sum of the a = 0 MUB projectors minus the
    identity; all three identities are verified on construction.
    """
    clifford._check_odd_prime(n)
    a = np.zeros((n, n), dtype=complex)
    a[-np.arange(n) % n, np.arange(n)] = 1.0
    f = combinat.fourier_matrix(n)
    if np.abs(a @ a - np.eye(n)).max() > TOL_MATRIX:
        raise RuntimeError("parity operator does not square to identity")
    if np.abs(f @ f - a).max() > TOL_MATRIX:
        raise RuntimeError("Fourier squared does not give the parity")
    if n <= _MAX_N:
        total = face_point_operator(mub.ivanovic_mubs(n), [0] * (n + 1))
        if np.abs(total - a).max() > TOL_MATRIX:
            raise RuntimeError("MUB-projector identity fails for parity")
    return a


def phase_point_set(n: int) -> np.ndarray:
    """All n^2 phase-point operators A_{r,s} = D_{r,s} A_{0,0}
    D_{r,s}^dag as an (n, n, n, n) array indexed [r, s].

    Construction-time checks: Hermitian, squares to identity (so
    eigenvalues are +-1 with multiplicities m, m-1 where n = 2m-1),
    unit trace, and Tr(A_{0,0} A_{r,s}) = n delta.
    """
    clifford._check_odd_prime(n)
    if n > _MAX_N:
        raise ValueError("n too large")
    a00 = parity_operator(n)
    table = weyl.displacement_table(n).reshape(n, n, n, n)
    pps = table @ a00 @ table.conj().transpose(0, 1, 3, 2)
    herm = np.abs(pps - pps.conj().transpose(0, 1, 3, 2)).max()
    invol = np.abs(pps @ pps - np.eye(n)).max()
    tr_dev = np.abs(np.einsum("rsaa->rs", pps) - 1.0).max()
    ortho = np.einsum("ab,rsba->rs", a00, pps)
    ortho[0, 0] -= n
    ortho_dev = np.abs(ortho).max()
    worst = max(herm, invol, float(tr_dev), float(ortho_dev))
    if worst > TOL_MATRIX:
        raise RuntimeError("phase-point invariants violated: %g" % worst)
    vals = np.linalg.eigvalsh(a00)
    m = (n + 1) // 2
    if (np.abs(vals[:m - 1] + 1).max() > TOL_MATRIX
            or np.abs(vals[m - 1:] - 1).max() > TOL_MATRIX):
        raise RuntimeError("parity eigenvalue multiplicities are not "
                           "(%d, %d)" % (m, m - 1))
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
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        raise ValueError("rho is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise ValueError("rho does not have unit trace")
    w = np.einsum("rsij,ji->rs", pps, rho) / n
    return w.real


def reconstruct_state(w, pps) -> np.ndarray:
    """Invert wigner_function: rho = sum_{r,s} W_{r,s} A_{r,s}."""
    return np.einsum("rs,rsij->ij", np.asarray(w), pps)


def pencil_directions(n: int):
    """The n + 1 directions labelling families of parallel lines:
    (0,1), then (x,1) for x = 1..n-1, then (1,0); direction k matches
    basis k of ivanovic_mubs(n)."""
    return [(0, 1)] + [(x, 1) for x in range(1, n)] + [(1, 0)]


def line_points(n: int, direction, c: int):
    """Points (v1, v2) of the line d2 v1 - d1 v2 = c (mod n)."""
    d1, d2 = direction[0] % n, direction[1] % n
    if d1 == 0 and d2 == 0:
        raise ValueError("zero direction")
    if d2:
        base = ((c * pow(d2, n - 2, n)) % n, 0)
    else:
        base = (0, (-c * pow(d1, n - 2, n)) % n)
    return [((base[0] + t * d1) % n, (base[1] + t * d2) % n)
            for t in range(n)]


def line_average(pps, direction, c: int) -> np.ndarray:
    """(1/n) sum of phase-point operators along one line; a rank-one
    MUB projector."""
    n = pps.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for v1, v2 in line_points(n, direction, c):
        out += pps[v1, v2]
    return out / n


def line_sums(w, pencil: int) -> np.ndarray:
    """Sums of the Wigner table along the n parallel lines of one
    pencil; a probability vector for a valid state."""
    w = np.asarray(w)
    n = w.shape[0]
    dirs = pencil_directions(n)
    if not 0 <= pencil < len(dirs):
        raise ValueError("invalid pencil")
    out = np.empty(n)
    for c in range(n):
        out[c] = sum(w[v1, v2] for v1, v2 in line_points(n, dirs[pencil], c))
    return out


def mub_line_map(pps, bases=None) -> list:
    """Match every line average to a MUB projector.

    Returns, per pencil direction, a dict with the basis index, the
    column index for each line offset c, and the worst matching
    residual.  Raises if some line fails to match a projector.
    """
    n = pps.shape[0]
    if bases is None:
        bases = mub.ivanovic_mubs(n)
    out = []
    for direction in pencil_directions(n):
        entry = {"direction": direction, "basis": None, "columns": [],
                 "max_residual": 0.0}
        for c in range(n):
            proj = line_average(pps, direction, c)
            hit = None
            for b_idx, b in enumerate(bases):
                if entry["basis"] is not None and b_idx != entry["basis"]:
                    continue
                overlaps = np.einsum("ia,ij,ja->a", b.conj(), proj, b).real
                j = int(np.argmax(overlaps))
                v = b[:, j]
                res = float(np.abs(proj - np.outer(v, v.conj())).max())
                if res < 1e-8:
                    hit = (b_idx, j, res)
                    break
            if hit is None:
                raise RuntimeError("line %s,%d matches no MUB projector"
                                   % (direction, c))
            entry["basis"] = hit[0]
            entry["columns"].append(hit[1])
            entry["max_residual"] = max(entry["max_residual"], hit[2])
        out.append(entry)
    return out


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


def clifford_covariance_check(pps, g) -> float:
    """Max over phase-space points of ||U_G A_{r,s} U_G^dag -
    A_{G(r,s)}||; conjugation is phase-free, so no minimization is
    needed."""
    n = pps.shape[0]
    u = clifford.metaplectic(g, n)
    moved = u @ pps @ u.conj().T
    targets = pps[clifford.sl2_apply(g, np.indices((n, n)), n)]
    return float(np.abs(moved - targets).max())
