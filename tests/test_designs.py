import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import clifford, combinat, designs, mub, weyl


def tetrahedron():
    a = np.sqrt((1 + 1 / np.sqrt(3)) / 2)
    b = np.exp(1j * np.pi / 4) * np.sqrt((1 - 1 / np.sqrt(3)) / 2)
    psi = np.array([a, b])
    return np.array([weyl.displacement(2, r, s) @ psi
                     for r in range(2) for s in range(2)])


def mub_family(p):
    return np.hstack(mub.subgroup_eigenbases(p)).T


def octahedron():
    return np.hstack(mub.subgroup_eigenbases(2)).T


def test_moment_single_vector():
    v = np.array([[1, 0, 0]], dtype=complex)
    for t in [1, 2, 5]:
        assert abs(designs.design_test(v, t)["value"] - 1) < 1e-14


def test_moment_orthonormal_basis():
    for n in [2, 3, 5]:
        basis = np.eye(n, dtype=complex)
        out = designs.design_test(basis, 1)
        assert abs(out["value"] - 1 / n) < 1e-14
        assert out["isDesign"]
        assert abs(out["target"] - 1 / n) < 1e-14


def test_tetrahedron_is_a_2_design():
    fam = tetrahedron()
    g2 = np.abs(fam.conj() @ fam.T) ** 2
    off = g2[~np.eye(4, dtype=bool)]
    assert np.abs(off - 1 / 3).max() < 1e-10
    out = designs.design_test(fam, 2)
    assert out["isDesign"]
    assert abs(out["value"] - 1 / 3) < 1e-10
    assert not designs.design_test(fam, 3)["isDesign"]


def test_mub_family_is_a_2_design_not_3():
    fam = mub_family(3)
    assert fam.shape == (12, 3)
    assert designs.design_test(fam, 2)["isDesign"]
    out = designs.design_test(fam, 3)
    assert not out["isDesign"]
    assert out["value"] > out["target"]


def test_octahedron_is_a_3_design():
    fam = octahedron()
    assert designs.design_test(fam, 3)["isDesign"]
    assert designs.design_test(fam, 2)["isDesign"]
    assert not designs.design_test(fam, 4)["isDesign"]
    assert len(fam) == designs.tight_bound(2, 3)


def test_welch_bound_single_vector():
    v = np.array([[1, 0]], dtype=complex)
    out = designs.welch_bound(v, 2)
    assert abs(out["lhs"] - math.comb(3, 2)) < 1e-12
    assert abs(out["rhs"] - 1) < 1e-12
    assert out["slack"] > 0


def test_welch_saturation_on_designs():
    out = designs.welch_bound(tetrahedron(), 2)
    assert abs(out["slack"]) < 1e-10
    out = designs.welch_bound(octahedron(), 3)
    assert abs(out["slack"]) < 1e-10
    out = designs.welch_bound(mub_family(3), 2)
    assert abs(out["slack"]) < 1e-9


def test_welch_strict_for_random_vectors():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    out = designs.welch_bound(v, 2)
    assert out["slack"] > 1e-3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 3),
       st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_welch_slack_is_nonnegative_on_random_families(n, t, count, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    # rows of random length: the bound holds for any family
    v *= rng.uniform(0.2, 2.0, (count, 1)) / np.linalg.norm(v, axis=1,
                                                            keepdims=True)
    assert designs.welch_bound(v, t)["slack"] >= 0


def _frame_operator(v, t):
    """F = sum_I |Psi_I^(ox t)><Psi_I^(ox t)| on the t-fold tensor space
    of the rows of v: Tr F = K, Tr F^2 = sum_{I,J} |<I|J>|^{2t}, and for a
    t-design the nonzero spectrum is flat at K / C(n+t-1, t)."""
    f = 0
    for row in v:
        big = functools.reduce(np.kron, [row] * t)
        f = f + np.outer(big, big.conj())
    return f


def test_frame_operator_properties():
    fam = mub_family(3)
    f = _frame_operator(fam, 2)
    assert abs(np.trace(f).real - 12) < 1e-10
    # Tr F^2 / K^2 is the moment design_test reads off the Gram
    value = designs.design_test(fam, 2)["value"]
    assert abs(np.trace(f @ f).real / 12 ** 2 - value) < 1e-12
    vals = np.sort(np.linalg.eigvalsh(f))[::-1]
    dim_sym = math.comb(3 + 1, 2)
    assert np.abs(vals[:dim_sym] - 12 / dim_sym).max() < 1e-9
    assert np.abs(vals[dim_sym:]).max() < 1e-9


def test_frame_operator_flatness_fails_off_design():
    fam = mub_family(3)
    f = _frame_operator(fam, 3)
    vals = np.sort(np.linalg.eigvalsh(f))[::-1]
    dim_sym = math.comb(3 + 2, 3)
    nonzero = vals[:dim_sym]
    assert nonzero.max() - nonzero.min() > 1e-3
    assert not designs.design_test(fam, 3)["isDesign"]


def test_frame_operator_identity_for_basis():
    f = _frame_operator(np.eye(4, dtype=complex), 1)
    assert np.abs(f - np.eye(4)).max() < 1e-12
    assert designs.design_test(np.eye(4, dtype=complex), 1)["isDesign"]


def test_tight_bound_goldens():
    for n in [2, 3, 4, 7]:
        assert designs.tight_bound(n, 2) == n * n
        assert designs.tight_bound(n, 1) == n
    assert designs.tight_bound(2, 3) == 6


def test_unitary_moment_wh_basis():
    table = weyl.displacement_table(3)
    out = designs.unitary_design_moment(list(table), 1)
    assert abs(out["value"] - 1.0) < 1e-10
    assert out["target"] == 1.0


def test_unitary_moment_single_identity():
    out = designs.unitary_design_moment([np.eye(3)], 1)
    assert abs(out["value"] - 9.0) < 1e-12
    assert out["value"] > out["target"]


def test_unitary_moment_clifford_2_design():
    # the qubit Clifford group is a unitary 3-design too: Catalan(3) = 5
    group = clifford.clifford_group_single_qubit()
    for t, target in ((2, 2.0), (3, 5.0)):
        out = designs.unitary_design_moment(group, t)
        assert abs(out["value"] - target) < 1e-9
        assert out["target"] == target


def test_unitary_moment_out_of_table():
    with pytest.raises(ValueError, match="out of table"):
        designs.unitary_design_moment([np.eye(3)], 4)
    out = designs.unitary_design_moment([np.eye(2)], 4)
    assert abs(out["target"] - math.factorial(8)
               / (math.factorial(4) * math.factorial(5))) < 1e-12


def test_unitary_moment_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        designs.unitary_design_moment([np.ones((2, 2))], 1)


def test_design_target_matches_haar_monte_carlo():
    rng = np.random.default_rng(12)
    n, t, trials = 3, 2, 4000
    vals = np.empty(trials)
    for i in range(trials):
        a = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        a /= np.linalg.norm(a, axis=1)[:, None]
        vals[i] = abs(np.vdot(a[0], a[1])) ** (2 * t)
    target = designs.design_target(n, t)
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - target) < 3 * se


def test_design_test_lower_moment_invariant_raises(monkeypatch):
    family = np.hstack(mub.subgroup_eigenbases(3)).T
    target = designs.design_target
    monkeypatch.setattr(designs, "design_target",
                        lambda n, t: target(n, t) + (t == 1))
    with pytest.raises(RuntimeError, match="not a 1-design"):
        designs.design_test(family, 2)


def test_design_test_passes_at_its_own_deviation():
    # isDesign is deviation <= tol, as a report check compares; the lower
    # moments of a passing family are held to the same <=
    fam = mub_family(5)
    out = designs.design_test(fam, 3)
    assert out["deviation"] == abs(out["value"] - out["target"]) > 1e-3
    assert designs.design_test(fam, 3, tol=out["deviation"])["isDesign"]
    assert not designs.design_test(
        fam, 3, tol=np.nextafter(out["deviation"], 0.0))["isDesign"]


def test_design_test_validates_norms():
    with pytest.raises(ValueError, match="unit norm"):
        designs.design_test(2 * np.eye(3), 1)


@pytest.mark.parametrize("t", [0, -1])
@pytest.mark.parametrize("fn", [designs.design_test, designs.welch_bound])
def test_family_moments_reject_nonpositive_t(fn, t):
    # at t = 0 every unit-vector family would pass design_test: moment 1,
    # target 1
    with pytest.raises(ValueError, match="t must be positive"):
        fn(np.eye(3), t)


@pytest.mark.parametrize("fn", [designs.design_test, designs.welch_bound])
def test_family_moments_reject_t_past_float_range(fn):
    # C(n+t-1, t) enters the target and the Welch bound as a float, and
    # the CLI maps no OverflowError.  For n = 128 the float range ends
    # between t = 12763 and 12764
    with pytest.raises(ValueError, match="overflows a float"):
        fn(np.eye(128), 12764)
    with pytest.raises(ValueError, match="overflows a float"):
        fn(np.eye(3), 10 ** 200)
    assert designs.design_test(np.eye(128), 12763)["target"] > 0.0


def _dense_moments(v, ts):
    """The dense Gram expressions the blocked pass replaced: the full K x K
    Gram, its squared moduli, their powers, and the diagonal's power."""
    gram = v.conj() @ v.T
    g2 = np.abs(gram) ** 2
    return ([float((g2 ** s).sum()) for s in ts],
            float((np.real(np.diag(gram)) ** ts[-1]).sum()))


def _random_family(rng, k, n, unit=True):
    v = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    scale = 1.0 if unit else rng.uniform(0.2, 2.0, (k, 1))
    return v * scale / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("family", [
    tetrahedron, lambda: mub_family(5), lambda: mub_family(13),
    lambda: _random_family(np.random.default_rng(1), 300, 7, unit=False),
    lambda: _random_family(np.random.default_rng(2), 2048, 2)],
    ids=["tetrahedron", "mub5", "mub13", "random300", "random2048"])
def test_moments_match_the_dense_gram_bit_for_bit_in_one_block(family):
    # K <= 2048 is one block of at most 2^22 entries: the same arrays
    v = family()
    g2 = np.abs(v.conj() @ v.T) ** 2
    for ts in ([1], [2], [3], [1, 2, 3]):
        assert designs._moments(v, ts) == _dense_moments(v, ts)
    for t in (1, 2, 3):
        assert designs._moments(v, [t])[0][0] / len(v) ** 2 \
            == float((g2 ** t).mean())


def test_moments_across_blocks_match_the_dense_gram():
    # K = 3000 in C^2: blocks of 1398 columns, three of them
    v = _random_family(np.random.default_rng(3), 3000, 2)
    sums, diag = designs._moments(v, [1, 2, 3])
    ref_sums, ref_diag = _dense_moments(v, [1, 2, 3])
    assert abs(diag - ref_diag) <= 1e-15 * ref_diag
    for got, ref in zip(sums, ref_sums):
        assert abs(got - ref) <= 1e-15 * ref


def test_unitary_moment_matches_the_dense_trace_gram():
    # the dense expression took |g|^{2t}; the blocked pass takes (|g|^2)^t
    for group in (clifford.clifford_group_single_qubit(),
                  list(weyl.displacement_table(3))):
        flat = np.array([u.reshape(-1) for u in group])
        gram = flat.conj() @ flat.T
        for t in (1, 2, 3):
            ref = float((np.abs(gram) ** (2 * t)).mean())
            value = designs.unitary_design_moment(group, t)["value"]
            assert abs(value - ref) <= 1e-15 * ref


def test_design_test_holds_a_gram_block_at_a_time():
    # K = 8196 in C^2: the dense Gram alone would be 8196^2 complex
    # entries, 1 GiB; a 3-design here, so the lower moments run too
    family = np.tile(octahedron(), (1366, 1))
    tracemalloc.start()
    try:
        out = designs.design_test(family, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["isDesign"]
    assert peak < 256 * 2 ** 20


def test_welch_relative_slack_does_not_grow_with_tiling():
    # lhs and rhs both grow as K^2, and so does their rounding: tiled
    # 200 times, the p = 3 complete set is still a 2-design
    fam = mub_family(3)
    base = designs.welch_bound(fam, 2)
    tiled = designs.welch_bound(np.tile(fam, (200, 1)), 2)
    assert tiled["rhs"] == 200 ** 2 * base["rhs"]
    assert abs(tiled["relative_slack"] - base["relative_slack"]) <= 1e-15
    assert tiled["relative_slack"] == tiled["slack"] / tiled["rhs"]
