"""Latin squares, complex Hadamard matrices, and maximally entangled bases.

A Latin square of order n is an n x n integer array over symbols 0..n-1
with no repeat in any row or column.  A complex Hadamard matrix here is a
unitary whose entries all have modulus 1/sqrt(n) (the unitary
normalization); only its phase table matters to the entangled-basis
construction, which rescales internally.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from . import gf
from .tol import TOL_INPUT, TOL_MATRIX


def latin_from_group(n: int) -> np.ndarray:
    """Cyclic-group table L(i,j) = i + j mod n, for 1 <= n <= 128."""
    if not 1 <= n <= 128:
        raise ValueError("order must be between 1 and 128")
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def is_latin(L) -> bool:
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        return False
    n = L.shape[0]
    symbols = set(range(n))
    for i in range(n):
        if set(L[i, :].tolist()) != symbols or set(L[:, i].tolist()) != symbols:
            return False
    return True


def count_reduced_latin(n: int) -> int:
    """Brute-force count of reduced Latin squares (first row and first
    column in natural order); desk scale n <= 5."""
    if n > 5:
        raise ValueError("brute-force count capped at order 5")
    if n == 1:
        return 1
    rows = [p for p in itertools.permutations(range(n))]

    def extend(square):
        r = len(square)
        if r == n:
            return 1
        total = 0
        for cand in rows:
            if cand[0] != r:
                continue
            if any(cand[c] == prev[c] for prev in square for c in range(n)):
                continue
            total += extend(square + [cand])
        return total

    return extend([tuple(range(n))])


def mols_from_field(q: int):
    """q-1 mutually orthogonal Latin squares L_a(x, y) = a*x + y over GF(q)."""
    pk = gf.prime_power(q)
    if pk is None:
        raise ValueError("no field of this order")
    if q > 64:
        raise ValueError("order capped at 64")
    spec = gf.field_make(*pk)
    x = np.arange(q)
    # axes (a, x, y) with a running over the nonzero elements
    return list(gf.add(spec, gf.mul(spec, x[1:, None, None], x[:, None]), x))


def fourier_matrix(n: int) -> np.ndarray:
    """F[j,k] = omega**(j*k) / sqrt(n), omega = exp(2*pi*i/n), for
    1 <= n <= 128, the dimension cap of complete MUB sets."""
    if not 1 <= n <= 128:
        raise ValueError("order must be between 1 and 128")
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return gf.roots_of_unity(n)[jk] / np.sqrt(n)


def is_complex_hadamard(H) -> bool:
    """Flat unitary test: all entries of modulus 1/sqrt(n) and H unitary,
    both within TOL_INPUT (1e-8)."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        return False
    n = H.shape[0]
    flat = np.abs(np.abs(H) - 1 / np.sqrt(n)).max() < TOL_INPUT
    unitary = np.abs(H @ H.conj().T - np.eye(n)).max() < TOL_INPUT
    return bool(flat and unitary)


def family4(t: float) -> np.ndarray:
    """The one-parameter circulant family of order-4 complex Hadamards;
    t = 0 is equivalent to the order-2 Fourier matrix tensored with itself,
    t = pi/2 to the order-4 Fourier matrix."""
    e = np.exp(1j * t)
    return 0.5 * np.array([
        [1, 1, 1, 1],
        [1, e, -1, -e],
        [1, -1, 1, -1],
        [1, -e, -1, e],
    ], dtype=complex)


def _dephase(H, r, c):
    """Phase-normalize so row r and column c become positive real."""
    row = H[r] / np.abs(H[r])
    col = H[:, c] / np.abs(H[:, c])
    anchor = H[r, c] / abs(H[r, c])
    return H * col.conj()[:, None] * row.conj()[None, :] * anchor


def _row_key(v, decimals=6):
    return tuple(np.round(v, decimals) + 0.0)


def hadamard_equivalent(h1, h2) -> bool:
    """Decide H2 = P D H1 D' P' existence (diagonal unitaries D, D' and
    permutations P, P') by exhaustive dephased search; order n <= 6."""
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    if h1.shape != h2.shape:
        raise ValueError("order mismatch")
    n = h1.shape[0]
    if n > 6:
        raise ValueError("order too large for exhaustive equivalence")
    if not (is_complex_hadamard(h1) and is_complex_hadamard(h2)):
        raise ValueError("inputs must be complex Hadamard matrices")
    B2 = _dephase(h2, 0, 0)
    target_row0 = _row_key(B2[0])
    target_rest = Counter(_row_key(B2[i]) for i in range(1, n))
    others = list(range(n))
    for r in range(n):
        for c in range(n):
            C = _dephase(h1, r, c)
            rest_cols = [j for j in others if j != c]
            for perm in itertools.permutations(rest_cols):
                kappa = (c,) + perm
                Cs = C[:, kappa]
                if _row_key(Cs[r]) != target_row0:
                    continue
                got = Counter(_row_key(Cs[i]) for i in range(n) if i != r)
                if got == target_rest:
                    return True
    return False


def werner_basis(L, H) -> np.ndarray:
    """n^2 orthonormal maximally entangled vectors from a Latin square L
    and a complex Hadamard H, returned as rows of an (n^2, n^2) array;
    row i*n+j is the vector with Latin index i and Hadamard index j.

    Only the phase table of H enters: entries are rescaled to unit modulus
    before use, so both the 1/sqrt(n)-flat and the unimodular
    normalizations are accepted.  Orders above 32 (a 1024 x 1024 basis,
    16 MB) are rejected before anything is built.
    """
    n = len(L)
    if n > 32:
        raise ValueError("werner order must be at most 32")
    L = np.asarray(L)
    H = np.asarray(H, dtype=complex)
    if H.shape != (n, n):
        raise ValueError("order mismatch")
    if not is_latin(L):
        raise ValueError("first argument is not a Latin square")
    Hu = H / np.mean(np.abs(H))
    V = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            v = np.zeros(n * n, dtype=complex)
            for k in range(n):
                v[k * n + L[i, k]] += Hu[j, k]
            V[i * n + j] = v / np.sqrt(n)
    return V


def vector_from_unitary(U) -> np.ndarray:
    """|U> = (1/sqrt(N)) sum_ij U_ij |i>|j>; maximally entangled unit
    vector; rejects non-unitary input."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    if U.ndim != 2 or U.shape[1] != n:
        raise ValueError("expected a square matrix")
    check_unitary(U)
    return U.reshape(n * n) / np.sqrt(n)


def check_unitary(U, tol: float = TOL_MATRIX) -> None:
    """ValueError unless max |U U^dag - I| <= tol; NaN fails."""
    if not np.abs(U @ U.conj().T - np.eye(len(U))).max() <= tol:
        raise ValueError("matrix is not unitary")


def reduced_density_matrices(v, n: int):
    """Both one-sided reductions of a bipartite pure state on C^n x C^n."""
    M = np.asarray(v, dtype=complex).reshape(n, n)
    return M @ M.conj().T, M.T @ M.conj()


def werner_invariants(vecs, n: int) -> dict:
    """Deviations of the Werner basis rows vecs, in report order:
    `gram_identity` max |V V^dag - 1| and `reduced_states` max |rho - 1/n|
    over both reductions of each row; np.max folds keep a NaN."""
    return {"gram_identity": float(np.max(np.abs(
                vecs @ vecs.conj().T - np.eye(n * n)))),
            "reduced_states": float(np.max([
                np.abs(rho - np.eye(n) / n).max() for v in vecs
                for rho in reduced_density_matrices(v, n)]))}
