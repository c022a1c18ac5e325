import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import clifford, combinat, weyl
from finhilb.tol import TOL_MATRIX


def test_sl2_counts():
    assert len(clifford.sl2_enumerate(3)) == 24
    assert len(clifford.sl2_enumerate(5)) == 120
    assert len(clifford.sl2_enumerate(7)) == 336
    # m^3 prod over primes l | m of (1 - 1/l^2), composite m up to 64
    for m, count in [(2, 6), (4, 48), (6, 144), (9, 648), (12, 1152),
                     (64, 196608)]:
        els = clifford.sl2_enumerate(m)
        assert len(els) == clifford.sl2_order(m) == count
        assert np.all((els[:, 0, 0] * els[:, 1, 1]
                       - els[:, 0, 1] * els[:, 1, 0]) % m == 1)


def test_sl2_contains_identity_and_closes():
    for p in [3, 5]:
        els = clifford.sl2_enumerate(p)
        keys = {g.tobytes() for g in els}
        assert np.eye(2, dtype=int).tobytes() in keys
        rng = np.random.default_rng(0)
        for _ in range(20):
            g1 = els[rng.integers(len(els))]
            g2 = els[rng.integers(len(els))]
            assert ((g1 @ g2) % p).tobytes() in keys


def test_sl2_guards():
    for m in (1, 65):
        with pytest.raises(ValueError, match="between 2 and 64"):
            clifford.sl2_enumerate(m)


def _sl2_loop(p):
    """The element-by-element enumeration sl2_enumerate replaced."""
    return [np.array([[a, b], [c, d]])
            for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p == 1]


@pytest.mark.parametrize("p", [3, 5, 11, 13, 4, 6, 8])
def test_sl2_enumerate_matches_loop_oracle(p):
    els = clifford.sl2_enumerate(p)
    oracle = _sl2_loop(p)
    assert len(els) == len(oracle)
    for g, h in zip(els, oracle):
        assert g.dtype == h.dtype and np.array_equal(g, h)


def test_sl2_enumerate_p31():
    assert len(clifford.sl2_enumerate(31)) == 31 * (31 * 31 - 1)


def test_metaplectic_identity():
    u = weyl.metaplectic(np.eye(2, dtype=int), 5)
    assert np.abs(u - np.eye(5)).max() < 1e-14


def test_metaplectic_minus_identity_is_parity():
    p = 5
    u = weyl.metaplectic(-np.eye(2, dtype=int), p)
    parity = np.zeros((p, p))
    for i in range(p):
        parity[(p - i) % p, i] = 1
    assert np.abs(u - parity).max() < 1e-14


def test_metaplectic_rotation_is_fourier():
    g = np.array([[0, -1], [1, 0]])
    u = weyl.metaplectic(g, 3)
    assert np.abs(u - combinat.fourier_matrix(3)).max() < 1e-12


def test_metaplectic_unitary_and_structure():
    for p, g_list in [(3, clifford.sl2_enumerate(3)),
                      (5, clifford.sl2_enumerate(5)[::7])]:
        for g in g_list:
            u = weyl.metaplectic(g, p)
            assert np.abs(u @ u.conj().T - np.eye(p)).max() < 1e-12
            if g[0, 1] % p:
                assert np.abs(np.abs(u) - 1 / np.sqrt(p)).max() < 1e-12
            else:
                nz = np.abs(u) > 1e-12
                assert nz.sum(axis=0).tolist() == [1] * p
                assert np.abs(np.abs(u[nz]) - 1).max() < 1e-12


def test_metaplectic_rejects_bad_input():
    for n in (1, 33):
        with pytest.raises(ValueError, match="between 2 and 32"):
            weyl.metaplectic(np.eye(2, dtype=int), n)
    with pytest.raises(ValueError, match="symplectic"):
        weyl.metaplectic(np.array([[1, 1], [1, 1]]), 5)
    # at even N the determinant is one mod 2N, not only mod N
    with pytest.raises(ValueError, match="symplectic"):
        weyl.metaplectic(np.array([[1, 0], [0, 3]]), 2)


def phase_distance(u, v):
    lam = np.trace(v.conj().T @ u) / u.shape[0]
    if abs(lam) > 1e-12:
        lam /= abs(lam)
    else:
        lam = 1.0
    return np.abs(u - lam * v).max()


def test_metaplectic_projective_representation():
    p = 3
    els = clifford.sl2_enumerate(p)
    mats = [weyl.metaplectic(g, p) for g in els]
    for i, g1 in enumerate(els):
        for j, g2 in enumerate(els):
            u12 = weyl.metaplectic((g1 @ g2) % p, p)
            assert phase_distance(mats[i] @ mats[j], u12) < 1e-10


def test_metaplectic_projective_representation_sampled():
    # U_G U_H = U_GH up to phase, G and H in SL(2, Z_nbar), composite N too
    rng = np.random.default_rng(1)
    for n in [5, 7, 4, 6, 9, 12]:
        m = weyl.nbar(n)
        els = clifford.sl2_enumerate(m)
        for _ in range(25):
            g1 = els[rng.integers(len(els))]
            g2 = els[rng.integers(len(els))]
            lhs = weyl.metaplectic(g1, n) @ weyl.metaplectic(g2, n)
            rhs = weyl.metaplectic((g1 @ g2) % m, n)
            assert phase_distance(lhs, rhs) < 1e-10, n


def test_normalizer_exhaustive_p3():
    for g in clifford.sl2_enumerate(3):
        assert clifford.normalizer_residual(g, 3) < 1e-10


def test_normalizer_sampled():
    rng = np.random.default_rng(2)
    for p in [5, 7]:
        els = clifford.sl2_enumerate(p)
        for _ in range(10):
            g = els[rng.integers(len(els))]
            assert clifford.normalizer_residual(g, p) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 32), st.integers(0, 2 ** 32 - 1))
def test_normalizer_residual_on_random_sl2(n, seed):
    # a uniform element of SL(2, Z_nbar): uniform 4-tuples, kept at unit
    # determinant
    m = weyl.nbar(n)
    rng = np.random.default_rng(seed)
    while True:
        a, b, c, d = (int(x) for x in rng.integers(m, size=4))
        if (a * d - b * c) % m == 1:
            break
    g = np.array([[a, b], [c, d]])
    assert clifford.normalizer_residual(g, n) <= TOL_MATRIX
    # the exact relation U D_{r,s} U^dag = D_{G(r,s)}, no free phase, with
    # the target built densely on the unreduced labels in Z_nbar
    u, worst = weyl.metaplectic(g, n), 0.0
    for r, s in itertools.product(range(n), repeat=2):
        target = weyl.displacement(n, *clifford.sl2_apply(g, (r, s), m))
        worst = max(worst, np.abs(u @ weyl.displacement(n, r, s) @ u.conj().T
                                  - target).max())
    assert worst <= TOL_MATRIX


def _two_index_normalizer(g, n):
    """Reference normalizer residual of the exact relation: the row and
    column gather of U by two broadcast index arrays, Gp reduced mod
    nbar(N) and the table's D_{Gp mod N} negated where tau**N = -1 makes
    it -D_{Gp}."""
    u = weyl.metaplectic(g, n)
    rows, vals = weyl._table_form(n)
    gr, gs = clifford.sl2_apply(g, np.divmod(np.arange(n * n), n),
                                weyl.nbar(n))
    r, s = gr % n, gs % n
    t = r * n + s
    odd = ((gr // n) * s + (gs // n) * r) % 2 == 1
    w = u[rows[t][:, :, None], rows[:, None, :]]
    w *= np.where(odd[:, None], -vals[t], vals[t]).conj()[:, :, None] \
        * vals[:, None, :]
    w -= u
    return float(np.abs(w).max())


def _fitted_normalizer(g, n):
    """The definition normalizer_residual had before the exact relation:
    Gp reduced mod N, and a free phase lam_p per point, the overlap's."""
    u = weyl.metaplectic(g, n)
    rows, vals = weyl._table_form(n)
    r, s = clifford.sl2_apply(g, np.divmod(np.arange(n * n), n), n)
    t = r * n + s
    w = u[rows[t][:, :, None], rows[:, None, :]]
    w *= vals[t].conj()[:, :, None] * vals[:, None, :]
    lam = np.exp(1j * np.angle(np.einsum("ij,kij->k", u.conj(), w)))
    w -= lam[:, None, None] * u
    return float(np.abs(w).max())


@pytest.mark.parametrize("n", range(3, 14))
def test_normalizer_matches_its_oracle_bit_for_bit(n):
    # all of SL(2, Z_nbar) at N = 3 and 4, 30 elements of it above
    group = clifford.sl2_enumerate(weyl.nbar(n))
    if n > 4:
        group = group[np.random.default_rng(n).choice(len(group), 30,
                                                      replace=False)]
    for g in group:
        assert clifford.normalizer_residual(g, n) \
            == _two_index_normalizer(g, n), g


# (N, G, the residual of the fitted definition, and of the exact relation,
# as float.hex), computed on numpy 2.4, x86-64: two elements of SL(2,
# Z_nbar) per N, with beta a unit, beta = 0 (N = 31) and neither.  The
# fitted values, pinned before the exact relation replaced that definition,
# name the tests and still hold for _fitted_normalizer, so the inputs U and
# the table form have not moved since
_NORMALIZER_PINS = [
    (2, (1, 1, 0, 1), "0x1.2b8388e82ab20p-52", "0x1.2b8388e82ab20p-52"),
    (2, (3, 1, 3, 0), "0x1.8f5a0be038ed6p-53", "0x1.2b8388e82ab20p-52"),
    (3, (0, 1, 2, 2), "0x1.7618fceaeef3cp-51", "0x1.3b29d7d635662p-51"),
    (3, (2, 1, 0, 2), "0x1.99ccc999fff00p-52", "0x1.0f876ccdf6cdap-51"),
    (4, (5, 6, 6, 1), "0x1.752e50db3a3a1p-52", "0x1.99ccc999fff00p-52"),
    (4, (7, 5, 2, 5), "0x1.0f876ccdf6cdap-52", "0x1.1a62633145c06p-52"),
    (6, (5, 6, 8, 5), "0x1.3b91bf663f039p-50", "0x1.90f5773e410e4p-50"),
    (6, (6, 11, 7, 3), "0x1.f627c54f1e0abp-51", "0x1.2de32c6628741p-50"),
    (7, (6, 4, 1, 2), "0x1.58a68a4a8d9f3p-53", "0x1.cd82b446159f4p-53"),
    (7, (4, 3, 0, 2), "0x1.ad5336963eefcp-53", "0x1.cd82b446159f4p-53"),
    (12, (14, 23, 7, 3), "0x1.49d93405be849p-51", "0x1.c51d19a043913p-51"),
    (12, (6, 1, 11, 6), "0x1.cd6f22532c914p-51", "0x1.03662a70264fcp-50"),
    (31, (28, 0, 1, 10), "0x1.e7ac0990559a7p-50", "0x1.33c42213ee0c9p-49"),
    (31, (17, 0, 14, 11), "0x1.04760c95db310p-49", "0x1.33c42213ee0c9p-49"),
    (32, (56, 19, 37, 8), "0x1.678e26e30fc22p-52", "0x1.9b5bd559e3700p-52"),
    (32, (10, 25, 17, 49), "0x1.6a09e667f3bcdp-52", "0x1.ae841693db8b5p-52"),
]


@pytest.mark.parametrize(
    "n, g, fitted, value", _NORMALIZER_PINS,
    ids=["%d-g%d-%s" % (row[0], i, row[2])
         for i, row in enumerate(_NORMALIZER_PINS)])
def test_normalizer_keeps_its_pinned_values(n, g, fitted, value):
    g = np.reshape(g, (2, 2))
    assert _fitted_normalizer(g, n) == float.fromhex(fitted)
    assert clifford.normalizer_residual(g, n) == float.fromhex(value)


def test_normalizer_identity_zero():
    assert clifford.normalizer_residual(np.eye(2, dtype=int), 5) < 1e-14


def _symplectic_exponent(p, q):
    """Omega(p, q) = p2*q1 - p1*q2 for index pairs p = (r, s)."""
    return p[1] * q[0] - p[0] * q[1]


def test_symplectic_form_preserved():
    rng = np.random.default_rng(3)
    for p in [3, 5, 7]:
        els = clifford.sl2_enumerate(p)
        for _ in range(10):
            g = els[rng.integers(len(els))]
            pt1 = tuple(rng.integers(p, size=2))
            pt2 = tuple(rng.integers(p, size=2))
            i1 = _symplectic_exponent(pt1, pt2) % p
            m1 = clifford.sl2_apply(g, pt1, p)
            m2 = clifford.sl2_apply(g, pt2, p)
            assert _symplectic_exponent(m1, m2) % p == i1


def test_order3_counts_and_properties():
    for n, count in [(3, 8), (5, 20), (7, 56), (32, 2048)]:
        m = weyl.nbar(n)
        els = clifford.order3_elements(n)
        assert len(els) == count
        eye = np.eye(2, dtype=int)
        for g in els:
            assert not np.array_equal(g, eye)
            assert np.array_equal((g @ g @ g) % m, eye)
            assert (g[0, 0] + g[1, 1]) % m == m - 1
            assert (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % m == 1


def test_order3_contains_standard_element():
    keys = {g.tobytes() for g in clifford.order3_elements(3)}
    z = np.array([[0, -1], [1, -1]]) % 3
    assert z.tobytes() in keys


def _zauner_invariance(psi, g, n):
    """Phase-minimized ||U_G psi - psi|| for one symplectic G: the b = (0,
    0) term of zauner_scan, by a dense product."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    ov = abs(np.vdot(psi, weyl.metaplectic(g, n) @ psi))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * ov)))


def test_zauner_invariance_basics():
    p = 3
    g = np.array([[0, -1], [1, -1]]) % p
    rng = np.random.default_rng(4)
    psi = rng.normal(size=p) + 1j * rng.normal(size=p)
    r1 = _zauner_invariance(psi, g, p)
    assert 0 <= r1 <= np.sqrt(2) + 1e-12
    rotated = weyl.metaplectic(g, p) @ (psi / np.linalg.norm(psi))
    r2 = _zauner_invariance(rotated, g, p)
    assert abs(r1 - r2) < 1e-10
    # the scan's b = (0, 0) terms are the invariances of each G alone
    assert clifford.zauner_scan(psi, p)["residual"] <= min(
        _zauner_invariance(psi, h, p)
        for h in clifford.order3_elements(p)) + 1e-12


def test_zauner_invariance_eigenvector_hits_zero():
    p = 5
    g = clifford.order3_elements(p)[0]
    u = weyl.metaplectic(g, p)
    phase = np.trace(u @ u @ u) / p     # U^3 is a global phase
    u = u / phase ** (1 / 3)
    proj = (np.eye(p) + u + u @ u) / 3  # onto the fixed subspace of U
    rng = np.random.default_rng(7)
    psi = proj @ (rng.normal(size=p) + 1j * rng.normal(size=p))
    psi /= np.linalg.norm(psi)
    assert _zauner_invariance(psi, g, p) < 1e-10
    assert clifford.zauner_scan(psi, p)["residual"] < 1e-10


def test_zauner_scan_reports_structure():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    out = clifford.zauner_scan(psi, 3)
    assert out["g"].shape == (2, 2)
    assert len(out["b"]) == 2
    assert 0 <= out["residual"] <= np.sqrt(2) + 1e-12
    # a fiducial of another dimension is a ValueError, not an IndexError
    for size in (2, 4):
        with pytest.raises(ValueError):
            clifford.zauner_scan(np.ones(size), 3)


def test_zauner_scan_matches_dense_table():
    # the scan gathers <psi|D_b on the monomial form; the reference
    # multiplies by the dense displacement table
    rng = np.random.default_rng(8)
    for p in (3, 5, 7, 4, 6):
        psi = rng.normal(size=p) + 1j * rng.normal(size=p)
        psi /= np.linalg.norm(psi)
        table = weyl.displacement_table(p)
        best = max(np.abs((table @ (weyl.metaplectic(g, p) @ psi))
                          @ psi.conj()).max()
                   for g in clifford.order3_elements(p))
        ref = np.sqrt(max(0.0, 2.0 - 2.0 * best))
        assert abs(clifford.zauner_scan(psi, p)["residual"] - ref) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_zauner_nonfinite_input_gives_nan(bad):
    psi = np.full(5, 0.5, dtype=complex)
    psi[0] = bad
    out = clifford.zauner_scan(psi, 5)
    assert np.isnan(out["residual"])
    assert out["g"].shape == (2, 2) and len(out["b"]) == 2


def test_single_qubit_clifford_group():
    group = clifford.clifford_group_single_qubit()
    assert len(group) == 24
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1.0, 1j])
    for m in group:
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
    assert any(phase_distance(m, h) < 1e-9 for m in group)
    assert any(phase_distance(m, s) < 1e-9 for m in group)
    rng = np.random.default_rng(6)
    for _ in range(20):
        m1 = group[rng.integers(24)]
        m2 = group[rng.integers(24)]
        prod = m1 @ m2
        assert sum(phase_distance(prod, m) < 1e-9 for m in group) == 1


def _gate_search_group():
    """The qubit Clifford group as it was built before D_p U_G: breadth-first
    from the identity under H and S, one element per rounded phase class."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1.0, 1j])

    def canonical(m):
        flat = m.reshape(4)
        for x in flat:
            if abs(x) > 0.1:
                m = m * (x.conjugate() / abs(x))
                break
        return tuple(np.round(m.reshape(4), 9) + 0.0)

    reps = {canonical(np.eye(2, dtype=complex)): np.eye(2, dtype=complex)}
    frontier = list(reps.values())
    while frontier:
        nxt = []
        for m in frontier:
            for gate in (h, s):
                cand = gate @ m
                if canonical(cand) not in reps:
                    reps[canonical(cand)] = cand
                    nxt.append(cand)
        frontier = nxt
    return list(reps.values())


def test_single_qubit_clifford_group_matches_the_gate_search():
    # the same 24 collineations, one to one, as D_p U_G from the metaplectic
    group = clifford.clifford_group_single_qubit()
    oracle = _gate_search_group()
    assert len(oracle) == 24
    match = np.array([[phase_distance(m, o) < 1e-9 for o in oracle]
                      for m in group])
    assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()


def _wrong_g_metaplectic(monkeypatch):
    """Make U_G the metaplectic of G transposed, so that the targets the
    checks index by G no longer match the conjugation."""
    right = weyl.metaplectic
    monkeypatch.setattr(weyl, "metaplectic",
                        lambda g, n: right(np.asarray(g).T, n))


def test_normalizer_fails_on_wrong_g(monkeypatch):
    g = np.array([[1, 1], [0, 1]])
    assert clifford.normalizer_residual(g, 5) < 1e-10
    _wrong_g_metaplectic(monkeypatch)
    assert clifford.normalizer_residual(g, 5) > 0.1


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_normalizer_fails_on_a_displaced_unitary(n, monkeypatch):
    # U_G D_(1,0) maps D_p to D_{Gp} only up to the phase omega**(-s), a
    # phase a per-point fit would absorb; the exact relation reads it
    right = weyl.metaplectic
    monkeypatch.setattr(weyl, "metaplectic", lambda g, n: right(g, n)
                        @ weyl.displacement(n, 1, 0))
    g = np.array([[1, 1], [0, 1]])
    assert clifford.normalizer_residual(g, n) > 0.1


def test_normalizer_reads_table_form(monkeypatch):
    # the phases of D_7 are corrupted along its rows in the monomial form
    # the check reads
    p = 5
    rows, vals = weyl._table_form(p)
    vals = vals.copy()
    vals[7] *= np.exp(0.3j * rows[7])
    monkeypatch.setattr(weyl, "_table_form", lambda n: (rows, vals))
    assert clifford.normalizer_residual(np.array([[1, 1], [0, 1]]), p) > 0.1
