import numpy as np
import pytest

from finhilb import combinat, mub, weyl, wigner


def dim3_golden_set():
    w = np.exp(2j * np.pi / 3)
    s = 1 / np.sqrt(3)
    b1 = s * np.array([[1, w ** 2, w ** 2],
                       [w ** 2, 1, w ** 2],
                       [w ** 2, w ** 2, 1]]).T
    b2 = s * np.array([[1, w, w], [w, 1, w], [w, w, 1]]).T
    b3 = s * np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]]).T
    return [np.eye(3, dtype=complex), b1, b2, b3]


def test_unbiasedness_comp_fourier():
    report = mub.unbiasedness_check([np.eye(5), combinat.fourier_matrix(5)])
    assert report["pass"]
    assert report["max_deviation"] < 1e-12


def test_unbiasedness_repeated_basis_fails():
    report = mub.unbiasedness_check([np.eye(4), np.eye(4)])
    assert not report["pass"]
    assert abs(report["max_deviation"] - (1 - 0.25)) < 1e-12


def test_unbiasedness_rejects_bad_member():
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="basis 1 is not orthonormal"):
        mub.unbiasedness_check([np.eye(3), bad])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_unbiasedness_nonfinite_entry_fails(bad):
    bases = mub.ivanovic_mubs(3)
    bases[1][0, 0] = bad
    report = mub.unbiasedness_check(bases)
    assert report["pass"] is False
    assert np.isnan(report["max_deviation"])


def test_unbiasedness_too_many_bases_raises():
    with pytest.raises(RuntimeError, match="more than n \\+ 1"):
        mub.unbiasedness_check([np.eye(2)] * 4, tol=1.0)


def test_dim3_golden_set_is_unbiased():
    report = mub.unbiasedness_check(dim3_golden_set())
    assert report["pass"]
    assert report["max_deviation"] < 1e-12


def test_ivanovic_dim3_matches_golden_columns():
    bases = mub.ivanovic_mubs(3)
    golden = dim3_golden_set()
    assert len(bases) == 4
    for b, g in zip(bases, golden):
        assert np.abs(b - g).max() < 1e-12


def test_ivanovic_p5_exhaustive_overlaps():
    bases = mub.ivanovic_mubs(5)
    assert len(bases) == 6
    report = mub.unbiasedness_check(bases)
    assert report["pass"]
    assert report["max_deviation"] < 1e-10


def test_ivanovic_eigenvector_property():
    for p in [3, 5, 7]:
        bases = mub.ivanovic_mubs(p)
        w = np.exp(2j * np.pi * np.arange(p) / p)
        gens = ([weyl.displacement(p, 0, 1)]
                + [weyl.displacement(p, x, 1) for x in range(1, p)]
                + [weyl.displacement(p, p - 1, 0)])
        for b, d in zip(bases, gens):
            assert np.abs(d @ b - b * w[None, :]).max() < 1e-10


def test_ivanovic_rejects_bad_p():
    with pytest.raises(ValueError, match="odd"):
        mub.ivanovic_mubs(2)
    with pytest.raises(ValueError, match="prime"):
        mub.ivanovic_mubs(9)
    with pytest.raises(ValueError, match="prime"):
        mub.ivanovic_mubs(4)


def test_qubit_mubs_octahedron():
    bases = mub.qubit_mubs()
    report = mub.unbiasedness_check(bases)
    assert report["pass"]
    paulis = [np.diag([1.0, -1.0]),
              np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]])]
    signs = np.array([1, -1])
    for b, m in zip(bases, paulis):
        assert np.abs(m @ b - b * signs[None, :]).max() < 1e-12


def test_canonicalize_strips_phase_and_order():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(a)
    phases = np.exp(2j * np.pi * rng.random(4))
    scrambled = (u * phases[None, :])[:, rng.permutation(4)]
    assert np.abs(mub.canonicalize_basis(u)
                  - mub.canonicalize_basis(scrambled)).max() < 1e-12


def _canonicalize_loop(basis, tol=1e-8):
    """The column-by-column canonicalize_basis, kept as an oracle for the
    vectorized one."""
    b = np.array(basis, dtype=complex)
    n, m = b.shape
    for j in range(m):
        col = b[:, j]
        for k in range(n):
            if abs(col[k]) > tol:
                b[:, j] = col * (col[k].conjugate() / abs(col[k]))
                break
    keys = []
    for j in range(m):
        keys.append(tuple(x for c in b[:, j]
                          for x in (round(c.real, 8) + 0.0,
                                    round(c.imag, 8) + 0.0)))
    order = sorted(range(m), key=lambda j: keys[j])
    return b[:, order]


def _scrambled(basis, rng):
    n = basis.shape[1]
    phases = np.exp(2j * np.pi * rng.random(n))
    return (basis * phases[None, :])[:, rng.permutation(n)]


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (3, 3), (2, 5), (2, 3),
                                 (3, 2)])
def test_canonicalize_matches_loop_oracle(p, k):
    rng = np.random.default_rng(p ** k)
    for seed in (1, 2, 3):
        for b in mub.subgroup_eigenbases(p, k, seed=seed):
            x = _scrambled(b, rng)
            assert np.abs(mub.canonicalize_basis(x)
                          - _canonicalize_loop(x)).max() <= 1e-12


def test_canonicalize_matches_loop_oracle_petals_and_edge_cases():
    rng = np.random.default_rng(11)
    for b in mub.mermin_landscape()["eigenbases"]:
        x = _scrambled(b, rng)
        assert np.abs(mub.canonicalize_basis(x)
                      - _canonicalize_loop(x)).max() <= 1e-12
    # a column with nothing above tol keeps its phase; tied keys keep
    # their input order, as a stable sort does
    odd = np.array([[1e-9j, 0.5j, 0.5j, -0.0],
                    [0.0, 1.0, 1.0, 2j],
                    [0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(mub.canonicalize_basis(odd), _canonicalize_loop(odd))


def match_families(fam1, fam2, tol=1e-8):
    fam1 = [mub.canonicalize_basis(b) for b in fam1]
    fam2 = [mub.canonicalize_basis(b) for b in fam2]
    used = set()
    for b in fam1:
        hit = None
        for j, c in enumerate(fam2):
            if j not in used and np.abs(b - c).max() < tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return len(used) == len(fam2)


def test_subgroup_eigenbases_p3_matches_ivanovic():
    sub = mub.subgroup_eigenbases(3, 1)
    assert len(sub) == 4
    assert match_families(sub, mub.ivanovic_mubs(3))


def test_subgroup_eigenbases_qubit_matches_octahedron():
    sub = mub.subgroup_eigenbases(2, 1)
    assert match_families(sub, mub.qubit_mubs())


def test_subgroup_eigenbases_dim4():
    bases = mub.subgroup_eigenbases(2, 2)
    assert len(bases) == 5
    report = mub.unbiasedness_check(bases)
    assert report["pass"]
    assert report["max_deviation"] < 1e-10


def test_subgroup_eigenbases_dim9():
    bases = mub.subgroup_eigenbases(3, 2)
    assert len(bases) == 10
    assert mub.unbiasedness_check(bases)["pass"]


def test_subgroup_eigenbases_guards():
    with pytest.raises(ValueError, match="prime"):
        mub.subgroup_eigenbases(4, 1)
    with pytest.raises(ValueError, match="too large"):
        mub.subgroup_eigenbases(2, 6)


def test_bloch_orthogonality():
    bases = mub.ivanovic_mubs(5)
    e = bases[1][:, 2]
    f = bases[4][:, 3]
    pe = np.outer(e, e.conj()) - np.eye(5) / 5
    pf = np.outer(f, f.conj()) - np.eye(5) / 5
    assert abs(np.trace(pe @ pf)) < 1e-12


def test_bbrv_flower_qubit_gives_paulis():
    petals = mub.bbrv_flower(mub.qubit_mubs())
    assert len(petals) == 3
    z = np.diag([1.0, -1.0])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    for petal, m in zip(petals, [z, x, y]):
        assert len(petal) == 2
        assert np.abs(petal[0] - np.eye(2)).max() < 1e-12
        assert np.abs(petal[1] - m).max() < 1e-10


def test_bbrv_flower_dim3():
    petals = mub.bbrv_flower(mub.ivanovic_mubs(3))
    assert len(petals) == 4
    for petal in petals:
        assert len(petal) == 3
        for u in petal:
            assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-10
            for v in petal:
                assert np.abs(u @ v - v @ u).max() < 1e-10
    flat = [u for petal in petals for u in petal[1:]]
    for i, u in enumerate(flat):
        for j, v in enumerate(flat):
            tr = np.trace(u.conj().T @ v)
            assert abs(tr - (3.0 if i == j else 0.0)) < 1e-9


def test_bbrv_flower_rejects_incomplete():
    with pytest.raises(ValueError, match="complete"):
        mub.bbrv_flower(mub.qubit_mubs()[:2])


def test_mermin_landscape_counts():
    land = mub.mermin_landscape()
    assert len(land["petals"]) == 15
    assert land["petals"][0] == ("1Z", "Z1", "ZZ")
    assert land["petals"][5] == ("ZZ", "XX", "YY")
    assert land["flowers"] == [
        (1, 2, 11, 13, 14), (1, 3, 9, 10, 15), (2, 3, 7, 8, 12),
        (4, 5, 11, 12, 15), (4, 6, 8, 10, 14), (5, 6, 7, 9, 13)]
    for flower in land["flowers"]:
        assert sum(1 for i in flower if i <= 6) == 2


def test_mermin_words_cover():
    land = mub.mermin_landscape()
    counts = {}
    for petal in land["petals"]:
        for wd in petal:
            counts[wd] = counts.get(wd, 0) + 1
    assert len(counts) == 15
    assert set(counts.values()) == {3}


def test_mermin_eigenbases_diagonalize_petals():
    land = mub.mermin_landscape()
    for petal, basis in zip(land["petals"], land["eigenbases"]):
        for wd in petal:
            m = basis.conj().T @ mub.pauli_word_matrix(wd) @ basis
            assert np.abs(m - np.diag(np.diag(m))).max() < 1e-10


def test_mermin_mub_sets_and_states():
    land = mub.mermin_landscape()
    assert len(land["mub_sets"]) == 6
    for family in land["mub_sets"]:
        report = mub.unbiasedness_check(family)
        assert report["pass"]
    assert land["stabilizer_states"].shape == (60, 4)
    assert mub.stabilizer_count(2, 2) == 60


def test_stabilizer_count_values():
    assert mub.stabilizer_count(2, 3) == 1080
    assert mub.stabilizer_count(3, 1) == 12
    assert mub.stabilizer_count(5, 1) == 30
    for p in [3, 5, 7]:
        assert mub.stabilizer_count(p, 1) == p * (p + 1)
    with pytest.raises(ValueError, match="prime"):
        mub.stabilizer_count(4, 1)
    with pytest.raises(ValueError, match="too large"):
        mub.stabilizer_count(2, 13)


def test_isotropic_lines_are_the_pencils():
    # in F_p^2 the maximal isotropic subspaces are the lines through the
    # origin, one per pencil of the Wigner phase space
    for p in (2, 3, 5, 7):
        spans = {frozenset((t * d1 % p, t * d2 % p) for t in range(p))
                 for d1, d2 in wigner.pencil_directions(p)}
        assert mub._maximal_isotropic_subspaces(p, 1) == spans


def test_maximal_isotropic_counts():
    assert mub.maximal_isotropic_count(2, 1) == 3
    assert mub.maximal_isotropic_count(3, 1) == 4
    assert mub.maximal_isotropic_count(2, 2) == 15
    assert mub.maximal_isotropic_count(2, 3) == 135
    assert mub.stabilizer_count(2, 3) == 135 * 8


def test_search_unbiased6_finds_verified_vectors():
    out = mub.search_unbiased6(restarts=16, seed=1)
    assert out["restarts"] == 16
    rows = np.vstack([np.eye(6), combinat.fourier_matrix(6).conj().T])
    for v in out["vectors"]:
        assert abs(np.linalg.norm(v) - 1) < 1e-8
        dev = np.abs(np.abs(rows @ v) ** 2 - 1 / 6).max()
        assert dev < 1e-7
    assert out["count"] >= 1


def test_search_unbiased6_thread_determinism():
    a = mub.search_unbiased6(restarts=24, seed=3, threads=1)
    b = mub.search_unbiased6(restarts=24, seed=3, threads=2)
    assert a["count"] == b["count"]
    assert a["min_value"] == b["min_value"]
    assert a["stats"] == b["stats"]
    assert a["stats"]["restarts"] == 24
    assert a["stats"]["converged"] == sum(
        f < 1e-18 for f in a["stats"]["final_values"])
    if a["count"]:
        assert np.abs(a["vectors"] - b["vectors"]).max() < 1e-9


def test_unbiased6_gradient_and_jacobian_finite_difference():
    value, value_grad, residual_jacobian = mub._unbiased6_objective()
    rows = np.vstack([np.eye(6), combinat.fourier_matrix(6).conj().T])
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(20):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = z / np.linalg.norm(z)
        f, grad = value_grad(v)
        d, jac = residual_jacobian(v)
        assert f == value(v)
        assert np.abs(d - (np.abs(rows @ v) ** 2 - 1 / 6)).max() < 1e-15
        assert abs(f - d @ d) < 1e-15
        fd = np.zeros(6, dtype=complex)
        fd_jac = np.zeros((12, 12))
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1.0
            fd[j] = ((value(v + h * e) - value(v - h * e))
                     + 1j * (value(v + 1j * h * e)
                             - value(v - 1j * h * e))) / (2.0 * h)
            fd_jac[:, j] = (residual_jacobian(v + h * e)[0]
                            - residual_jacobian(v - h * e)[0]) / (2.0 * h)
            fd_jac[:, 6 + j] = (residual_jacobian(v + 1j * h * e)[0]
                                - residual_jacobian(v - 1j * h * e)[0]) / (2.0 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) < 1e-6
        assert np.linalg.norm(jac - fd_jac) / np.linalg.norm(jac) < 1e-6
