import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import clifford, combinat, designs, mub, weyl, wigner
from finhilb.tol import TOL_MATRIX

_PRIMES = st.sampled_from([3, 5, 7, 11, 13])
_SEEDS = st.integers(0, 2 ** 32 - 1)
_phase_points = functools.lru_cache(maxsize=None)(wigner.phase_point_set)


def test_parity_golden_dim3():
    a = wigner.parity_operator(3)
    assert np.abs(a - np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])).max() == 0


def test_parity_identities():
    for n in [3, 5, 7, 11]:
        a = wigner.parity_operator(n)
        f = combinat.fourier_matrix(n)
        assert abs(np.trace(a) - 1) < 1e-12
        assert np.abs(a @ a - np.eye(n)).max() < 1e-12
        assert np.abs(f @ f - a).max() < 1e-12


def test_parity_mub_projector_identity():
    for n in [3, 5, 7]:
        a = wigner.parity_operator(n)
        total = -np.eye(n, dtype=complex)
        for b in mub.subgroup_eigenbases(n):
            v = b[:, 0]
            total += np.outer(v, v.conj())
        assert np.abs(total - a).max() < 1e-10


def test_parity_rejects_bad_n():
    with pytest.raises(ValueError, match="odd"):
        wigner.parity_operator(2)
    with pytest.raises(ValueError, match="prime"):
        wigner.parity_operator(9)


def test_phase_point_orthogonality_exhaustive_dim3():
    pps = wigner.phase_point_set(3)
    flat = pps.reshape(9, 3, 3)
    for i in range(9):
        for j in range(9):
            tr = np.trace(flat[i] @ flat[j])
            assert abs(tr - (3.0 if i == j else 0.0)) < 1e-10


def test_phase_point_eigenvalue_multiplicities():
    for n, minus in [(3, 1), (5, 2), (7, 3)]:
        pps = wigner.phase_point_set(n)
        for r, s in [(0, 0), (1, 2), (n - 1, 1)]:
            vals = np.sort(np.linalg.eigvalsh(pps[r, s]))
            assert np.abs(vals[:minus] + 1).max() < 1e-10
            assert np.abs(vals[minus:] - 1).max() < 1e-10


def test_phase_point_origin_is_parity():
    pps = wigner.phase_point_set(5)
    assert np.abs(pps[0, 0] - wigner.parity_operator(5)).max() < 1e-14


def test_operator_expansion_in_phase_point_basis():
    n = 5
    pps = wigner.phase_point_set(n)
    rng = np.random.default_rng(1)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    coef = np.einsum("rsij,ji->rs", pps, m) / n
    rebuilt = np.einsum("rs,rsij->ij", coef, pps)
    assert np.abs(rebuilt - m).max() < 1e-10


def test_wigner_uniform_for_maximally_mixed():
    n = 5
    pps = wigner.phase_point_set(n)
    w = wigner.wigner_function(np.eye(n) / n, pps)
    assert np.abs(w - 1 / n ** 2).max() < 1e-12


def test_wigner_normalization_and_roundtrip():
    for n in [3, 7]:
        pps = wigner.phase_point_set(n)
        rho = wigner.random_density(np.random.default_rng(n), n)
        w = wigner.wigner_function(rho, pps)
        assert w.dtype.kind == "f"
        assert abs(w.sum() - 1) < 1e-10
        back = wigner.reconstruct_state(w, pps)
        assert np.abs(back - rho).max() < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_PRIMES, _SEEDS)
def test_wigner_roundtrip_on_random_states(n, seed):
    pps = _phase_points(n)
    rho = wigner.random_density(np.random.default_rng(seed), n)
    back = wigner.reconstruct_state(wigner.wigner_function(rho, pps), pps)
    assert np.abs(back - rho).max() <= TOL_MATRIX


def test_wigner_rejects_bad_input():
    pps = wigner.phase_point_set(3)
    with pytest.raises(ValueError, match="Hermitian"):
        wigner.wigner_function(np.diag([1j, -1j, 1]), pps)
    with pytest.raises(ValueError, match="unit trace"):
        wigner.wigner_function(np.eye(3), pps)
    with pytest.raises(ValueError, match="dimension"):
        wigner.wigner_function(np.eye(5) / 5, pps)


def test_line_points_geometry():
    n = 5
    for d in mub.directions(n):
        seen = set()
        for c in range(n):
            pts = wigner.line_points(n, d, c)
            assert len(pts) == n
            for v1, v2 in pts:
                assert (d[1] * v1 - d[0] * v2) % n == c % n
            seen.update(pts)
        assert len(seen) == n * n
    with pytest.raises(ValueError, match="zero"):
        wigner.line_points(5, (0, 0), 1)


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
def test_line_points_off_the_horizontal_pencil(n):
    # (1, 0), (n-1, 0) and (2, 0) are multiples of the pencil (-1, 0):
    # each walks the line v2 = -c / d1, every point on it once
    for d in [(1, 0), (n - 1, 0), (2, 0)]:
        for c in range(n):
            pts = wigner.line_points(n, d, c)
            assert len(set(pts)) == n
            assert all((d[1] * v1 - d[0] * v2) % n == c for v1, v2 in pts)
    assert wigner.line_points(n, (1, 0), 1) == [(t, n - 1) for t in range(n)]


def test_lines_need_a_prime_n():
    # pow(d, n - 2, n) is an inverse only mod a prime: at n = 9 the walk
    # put (0, 3) through points with 3 v1 = 0, off the line 3 v1 = 1
    with pytest.raises(ValueError, match="prime"):
        wigner.line_points(9, (0, 3), 1)
    with pytest.raises(ValueError, match="prime"):
        wigner.line_average(np.zeros((9, 9, 9, 9)), (1, 1), 0)
    with pytest.raises(ValueError, match="prime"):
        wigner.line_sums(np.zeros((9, 9)), 1)
    assert wigner.line_points(2, (1, 1), 1) == [(1, 0), (0, 1)]


def _phase_points_from_nan_form(monkeypatch):
    rows, vals = weyl._table_form(5)
    vals = vals.copy()
    vals[5, 0] = np.nan
    monkeypatch.setattr(weyl, "_table_form", lambda n: (rows, vals))
    return wigner.phase_point_set(5)


_NAN3 = np.full((3, 3), np.nan, dtype=complex)


@pytest.mark.parametrize("call, error", [
    (_phase_points_from_nan_form, "phase-point invariants"),
    (lambda mp: wigner.wigner_function(_NAN3, wigner.phase_point_set(3)),
     "not Hermitian"),
    (lambda mp: combinat.vector_from_unitary(_NAN3), "not unitary"),
    (lambda mp: designs.unitary_design_moment([_NAN3], 1), "not unitary"),
    (lambda mp: mub.bbrv_flower([_NAN3] * 4), "petal union"),
], ids=["phase_point_set", "wigner_function", "vector_from_unitary",
        "unitary_design_moment", "bbrv_flower"])
def test_library_gates_fail_closed_on_nan(monkeypatch, call, error):
    """A NaN that reaches a gate fails it."""
    with pytest.raises((ValueError, RuntimeError), match=error):
        call(monkeypatch)


def test_line_sums_basics():
    n = 5
    pps = wigner.phase_point_set(n)
    w = wigner.wigner_function(np.eye(n) / n, pps)
    for pencil in range(n + 1):
        sums = wigner.line_sums(w, pencil)
        assert np.abs(sums - 1 / n).max() < 1e-12
    rho = wigner.random_density(np.random.default_rng(9), n)
    w = wigner.wigner_function(rho, pps)
    for pencil in range(n + 1):
        assert abs(wigner.line_sums(w, pencil).sum() - 1) < 1e-10
    with pytest.raises(ValueError, match="pencil"):
        wigner.line_sums(w, n + 1)


def test_mub_state_line_sums_are_deterministic():
    n = 3
    pps = wigner.phase_point_set(n)
    bases = mub.subgroup_eigenbases(n)
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = 1.0  # |0><0| is basis 0, column 0
    w = wigner.wigner_function(rho, pps)
    sums = wigner.line_sums(w, 0)
    assert np.round(sums, 10).tolist() == [1, 0, 0]
    v = bases[2][:, 1]
    w = wigner.wigner_function(np.outer(v, v.conj()), pps)
    sums = wigner.line_sums(w, 2)
    assert np.round(sums, 10).tolist() == [0, 1, 0]
    # against a foreign pencil the state looks maximally random
    assert np.abs(wigner.line_sums(w, 0) - 1 / n).max() < 1e-10


def test_mub_line_map_rejects_a_residual_above_the_matrix_tolerance():
    # 3e-9 on one entry of A_(0,0) moves every line through the origin by
    # 1e-9, above TOL_MATRIX and below the 1e-8 the check used to allow
    pps = wigner.phase_point_set(3).copy()
    pps[0, 0, 0, 0] += 3e-9
    with pytest.raises(RuntimeError, match="misses its MUB projector"):
        wigner.mub_line_map(pps)


def test_mub_line_map_matches_pencils_to_bases():
    for n in [3, 5]:
        pps = wigner.phase_point_set(n)
        entries = wigner.mub_line_map(pps)
        assert [e["basis"] for e in entries] == list(range(n + 1))
        assert [e["direction"] for e in entries] == mub.directions(n)
        for e in entries:
            assert e["max_residual"] < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_PRIMES, _SEEDS)
def test_line_sums_are_mub_marginals(n, seed):
    # the sum of W along line c of pencil k is <b|rho|b> for b column c
    # of basis k, on every pencil
    pps = _phase_points(n)
    rho = wigner.random_density(np.random.default_rng(seed), n)
    w = wigner.wigner_function(rho, pps)
    for k, b in enumerate(mub.subgroup_eigenbases(n)):
        probs = np.einsum("ic,ij,jc->c", b.conj(), rho, b).real
        assert np.abs(wigner.line_sums(w, k) - probs).max() <= TOL_MATRIX


def test_phase_point_from_line_projectors():
    # every phase-point operator is the sum of the n+1 line projectors
    # through its point, minus the identity
    for n in [3, 5]:
        pps = wigner.phase_point_set(n)
        for v1 in range(n):
            for v2 in range(n):
                total = -np.eye(n, dtype=complex)
                for d in mub.directions(n):
                    c = (d[1] * v1 - d[0] * v2) % n
                    total += wigner.line_average(pps, d, c)
                assert np.abs(total - pps[v1, v2]).max() < 1e-10


def test_face_point_operator():
    n = 3
    bases = mub.subgroup_eigenbases(n)
    a = wigner.face_point_operator(bases, [0] * (n + 1))
    assert np.abs(a - wigner.parity_operator(n)).max() < 1e-10
    rng = np.random.default_rng(3)
    for _ in range(5):
        choice = rng.integers(n, size=n + 1)
        af = wigner.face_point_operator(bases, list(choice))
        assert abs(np.trace(af) - 1) < 1e-10
        assert np.abs(af - af.conj().T).max() < 1e-12
    with pytest.raises(ValueError, match="one chosen vector per basis"):
        wigner.face_point_operator(bases, [0, 1])


def test_face_point_polytope_bounds_for_mub_mixtures():
    n = 3
    bases = mub.subgroup_eigenbases(n)
    rng = np.random.default_rng(4)
    projs = [np.outer(b[:, j], b[:, j].conj()) for b in bases
             for j in range(n)]
    for _ in range(20):
        weights = rng.dirichlet(np.ones(len(projs)))
        rho = sum(wt * pr for wt, pr in zip(weights, projs))
        for v1, v2 in [(0, 0), (1, 2), (2, 1)]:
            # column c of basis k belongs to line c of pencil k
            choice = [(d2 * v1 - d1 * v2) % n
                      for d1, d2 in mub.directions(n)]
            af = wigner.face_point_operator(bases, choice)
            val = float(np.trace(rho @ af).real)
            assert -1e-10 <= val <= 1 + 1e-10


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_phase_point_form_is_the_closed_form(n):
    # the form composed from the displacements is A_{r,s}|y> = omega**(2s(r
    # - y)) |2r - y>, up to the rounding of the two tau**(rs) that cancel:
    # at most 1.4e-15 at n <= 31
    rows, vals = wigner._phase_point_form(n)
    r, s = (a[:, None] for a in np.divmod(np.arange(n * n), n))
    y = np.arange(n)
    assert np.array_equal(rows, (2 * r - y) % n)
    closed = np.exp(2j * np.pi * (2 * s * (r - y) % n) / n)
    assert np.abs(vals - closed).max() <= 2e-15


def _covariance(n, g):
    """covariance_residuals for one G."""
    return float(wigner.covariance_residuals(n, [g])[0])


def test_covariance_identity_and_negation():
    assert _covariance(3, np.eye(2, dtype=int)) < 1e-14
    assert _covariance(3, -np.eye(2, dtype=int)) < 1e-10


def test_covariance_exhaustive_p3():
    for g in clifford.sl2_enumerate(3):
        assert _covariance(3, g) < 1e-10


def test_covariance_sampled_p5_p7():
    rng = np.random.default_rng(5)
    for p in [5, 7]:
        els = clifford.sl2_enumerate(p)
        for _ in range(15):
            g = els[rng.integers(len(els))]
            assert _covariance(p, g) < 1e-10


def _dense_covariance(pps, g):
    """Reference covariance residual on the dense stack: max |U A_a U^dag -
    A_{Ga}|."""
    n = pps.shape[0]
    u = weyl.metaplectic(g, n)
    moved = u @ pps @ u.conj().T
    targets = pps[clifford.sl2_apply(g, np.indices((n, n)), n)]
    return float(np.abs(moved - targets).max())


def _two_index_covariance(g, n):
    """Reference kernel residual: max |A_{Ga}^dag U A_a - U| by a row and
    column gather of U on the phase-point form."""
    u = weyl.metaplectic(g, n)
    rows, vals = wigner._phase_point_form(n)
    r, s = clifford.sl2_apply(g, np.divmod(np.arange(n * n), n), n)
    t = r * n + s
    w = u[rows[t][:, :, None], rows[:, None, :]]
    w *= vals[t].conj()[:, :, None] * vals[:, None, :]
    return float(np.abs(w - u).max())


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
def test_covariance_matches_its_oracle_bit_for_bit(n, monkeypatch):
    # phase points need an odd prime: all of SL(2, Z_3), 30 elements above.
    # The kernel is the two-index gather bit for bit; the dense residual
    # measures the same relation with other rounding, and both see a U_G
    # built for G transposed
    pps = _phase_points(n)
    group = clifford.sl2_enumerate(n)
    if n > 3:
        group = group[np.random.default_rng(n).choice(len(group), 30,
                                                      replace=False)]
    kernel = wigner.covariance_residuals(n, group)
    assert kernel.tolist() == [_two_index_covariance(g, n) for g in group]
    assert kernel.max() <= 1e-13
    assert max(_dense_covariance(pps, g) for g in group) <= 1e-13
    right = weyl.metaplectic
    monkeypatch.setattr(weyl, "metaplectic",
                        lambda g, n: right(np.asarray(g).T, n))
    moved = [g for g in group if not np.array_equal(g, g.T)]
    assert wigner.covariance_residuals(n, moved).min() > 0.1
    assert min(_dense_covariance(pps, g) for g in moved) > 0.1


def test_covariance_sample_reuses_its_buffers():
    # the dense check's 50 elements at p = 13 peaked at 1.6 MB traced; one
    # (n^2, n, n) complex array is 0.46 MB
    group = clifford.sl2_enumerate(13)
    group = group[np.random.default_rng(13).choice(len(group), 50,
                                                   replace=False)]
    tracemalloc.start()
    try:
        wigner.covariance_residuals(13, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6


def test_covariance_fails_on_wrong_g(monkeypatch):
    g = np.array([[1, 1], [0, 1]])
    assert _covariance(5, g) < 1e-10
    right = weyl.metaplectic
    monkeypatch.setattr(weyl, "metaplectic",
                        lambda g, n: right(np.asarray(g).T, n))
    assert _covariance(5, g) > 0.1


def test_covariance_reads_phase_points(monkeypatch):
    # A_{1,2}'s first column off by 0.3 in the form the check reads
    rows, vals = wigner._phase_point_form(5)
    vals[1 * 5 + 2, 0] += 0.3
    monkeypatch.setattr(wigner, "_phase_point_form", lambda n: (rows, vals))
    assert _covariance(5, np.array([[1, 1], [0, 1]])) > 0.1
