import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import designs, mub, sic, weyl


@functools.lru_cache(maxsize=None)
def searched(n, restarts, seed):
    return sic.sic_search(n, restarts=restarts, seed=seed)


def qubit_fiducial():
    # Bloch vector (1, 1, 1)/sqrt(3)
    a = math.sqrt((1.0 + 1.0 / math.sqrt(3.0)) / 2.0)
    b = math.sqrt((1.0 - 1.0 / math.sqrt(3.0)) / 2.0)
    return np.array([a, b * np.exp(1j * np.pi / 4.0)])


def test_fsic_basis_state_hand_value():
    # overlaps with X, Z, XZ are 0, 1, 0 -> (0-1/3)^2 + (1-1/3)^2 + (0-1/3)^2
    e0 = np.array([1.0, 0.0])
    assert abs(sic.f_sic(e0) - 2.0 / 3.0) < 1e-14


def test_fsic_qubit_fiducial():
    assert sic.f_sic(qubit_fiducial()) < 1e-15


def test_fsic_nonunit_error():
    with pytest.raises(ValueError):
        sic.f_sic(np.array([1.0, 1.0]))


def test_fsic_phase_and_orbit_invariance():
    rng = np.random.default_rng(3)
    for n in (3, 5):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = z / np.linalg.norm(z)
        f = sic.f_sic(psi)
        assert abs(sic.f_sic(np.exp(0.37j) * psi) - f) < 1e-12
        for r, s in ((1, 0), (0, 1), (n - 1, n - 2)):
            moved = weyl.displacement(n, r, s) @ psi
            assert abs(sic.f_sic(moved) - f) < 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for n in (3, 4, 5):
        for _ in range(4):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi = z / np.linalg.norm(z)
            g = sic.f_sic_grad(psi)
            fd = np.zeros(n, dtype=complex)
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                fd[j] = ((sic.f_sic(psi + h * e) - sic.f_sic(psi - h * e))
                         + 1j * (sic.f_sic(psi + 1j * h * e)
                                 - sic.f_sic(psi - 1j * h * e))) / (2.0 * h)
            assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6


def test_search_dim2_tetrahedron():
    out = searched(2, 8, 1)
    assert out["converged"] and out["fsic"] < 1e-12
    orbit = sic.sic_orbit(out["fiducial"])
    assert orbit.shape == (4, 2)
    gram2 = np.abs(orbit @ orbit.conj().T) ** 2
    off = ~np.eye(4, dtype=bool)
    assert np.max(np.abs(gram2[off] - 1.0 / 3.0)) < 1e-10
    assert sic.sic_verify(out)["pass"]


@pytest.mark.parametrize("n,restarts", [(3, 8), (5, 32), (7, 16)])
def test_search_odd_dimensions(n, restarts):
    out = searched(n, restarts, 1)
    assert out["converged"] and out["fsic"] < 1e-12
    rep = sic.sic_verify(out)
    assert rep["pass"] and rep["vectors"] == n * n
    assert rep["gramDeviation"] < 1e-8


def test_search_deterministic_and_threaded_merge():
    # restarts run serially, so two runs from one seed agree exactly
    seq = sic.sic_search(3, restarts=6, seed=4)
    again = sic.sic_search(3, restarts=6, seed=4)
    assert seq["restart"] == again["restart"]
    assert np.array_equal(seq["fiducial"], again["fiducial"])


def counting_objective(n):
    """f_sic's value and value_grad at dimension n, as sic_search binds
    them, plus a dict counting their calls."""
    form = sic._gathers(n)
    calls = {"value": 0, "grad": 0}

    def value(psi):
        calls["value"] += 1
        return sic._value(psi, form)

    def value_grad(psi):
        calls["grad"] += 1
        return sic._value_grad(psi, form)

    return value, value_grad, calls


def _dense_overlaps(psi, table):
    # the objective on the dense (N^2, N, N) table, the reference for the
    # gathers on the monomial form
    dpsi = table @ psi
    c = dpsi @ psi.conj()
    d = np.abs(c) ** 2 - 1.0 / (psi.size + 1)
    d[0] = 0.0
    hpsi = np.einsum("kji,j->ki", table, psi.conj()).conj()
    return dpsi, hpsi, c, d


def _dense_value_grad(psi, table):
    dpsi, hpsi, c, d = _dense_overlaps(psi, table)
    return float(d @ d), 4.0 * ((d * c.conj()) @ dpsi + (d * c) @ hpsi)


def _dense_residual_jacobian(psi, table):
    dpsi, hpsi, c, d = _dense_overlaps(psi, table)
    dc_dx = dpsi + hpsi.conj()
    dc_dy = 1j * (hpsi.conj() - dpsi)
    jac = np.hstack([2.0 * np.real(c.conj()[:, None] * dc_dx),
                     2.0 * np.real(c.conj()[:, None] * dc_dy)])
    jac[0, :] = 0.0
    return d, jac


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_gathers_match_dense_table(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = z / np.linalg.norm(z)
    table, form = weyl.displacement_table(n), sic._gathers(n)
    dpsi, _, c, _ = _dense_overlaps(psi, table)
    f, g = _dense_value_grad(psi, table)
    new_f, new_g = sic._value_grad(psi, form)
    assert abs(new_f - f) <= 1e-13 * f
    assert abs(sic._value(psi, form) - f) <= 1e-13 * f
    assert _rel(new_g, g) <= 1e-13
    d_new, jac_new = sic._residual_jacobian(psi, form)
    d_ref, jac_ref = _dense_residual_jacobian(psi, table)
    assert _rel(d_new, d_ref) <= 1e-13 and _rel(jac_new, jac_ref) <= 1e-13
    assert _rel(sic.sic_orbit(psi), dpsi) <= 1e-13
    assert _rel(sic._overlaps(psi, form)[1], c) <= 1e-13


def search_start(n, seed, r):
    # the start of restart r of sic_search(n, seed=seed), pinned by
    # test_search_restart_r_starts_from_seed_r
    return sic._haar_start(np.random.default_rng([seed, r]), n)


def test_search_restart_r_starts_from_seed_r():
    out = sic.sic_search(8, restarts=16, seed=1)
    objective = [functools.partial(fn, form=sic._gathers(8))
                 for fn in (sic._value, sic._value_grad,
                            sic._residual_jacobian)]
    for r in (0, 6, 15):
        f = sic.optimize(search_start(8, 1, r), *objective)[1]
        assert out["stats"]["final_values"][r] == f


def test_descend_line_search_calls_per_gradient():
    # a restart at its rounding floor must stop, not halve ~40 times per
    # iteration back to a no-op step until the stall window fires (15.9
    # value calls per gradient call over this search)
    value, value_grad, calls = counting_objective(8)
    for r in range(48):
        sic.descend(search_start(8, 1, r), value, value_grad)
    assert calls["value"] <= 3 * calls["grad"]


def test_descend_stops_at_rounding_floor():
    value, value_grad, calls = counting_objective(8)
    psi, f, stop = sic.descend(search_start(8, 1, 6), value, value_grad)
    assert stop == "no_decrease" and f > 1e-3
    calls.update(value=0, grad=0)
    again, f_again, stop = sic.descend(psi, value, value_grad)
    assert stop == "no_decrease"
    assert calls["grad"] <= 5 and calls["value"] <= 120
    assert f_again <= f and f_again == sic.f_sic(again)


def test_search_stats_keys_and_tally():
    out = sic.sic_search(8, restarts=16, seed=1)
    stats = out["stats"]
    assert set(stats) == {"restarts", "converged", "iterations",
                          "value_calls", "grad_calls", "polish_steps",
                          "final_values", "stops"}
    for key in ("restarts", "converged", "iterations", "value_calls",
                "grad_calls", "polish_steps"):
        assert isinstance(stats[key], int)
    assert set(stats["stops"]) == {"trigger", "no_decrease", "stall",
                                   "line_search", "cap"}
    assert sum(stats["stops"].values()) == stats["restarts"] == 16
    assert len(stats["final_values"]) == 16
    assert all(isinstance(f, float) for f in stats["final_values"])
    assert min(stats["final_values"]) == out["fsic"]
    assert stats["final_values"][out["restart"]] == out["fsic"]
    assert stats["converged"] == sum(f < 1e-12 for f in stats["final_values"])
    # every step is one gradient call after the first
    assert stats["iterations"] == stats["grad_calls"] - 16


def test_search_threads_agree_where_restarts_stall():
    # restarts 6 and 8 of this search stop on "no_decrease"; a rerun from
    # the same seed repeats them exactly
    seq = sic.sic_search(8, restarts=16, seed=1)
    again = sic.sic_search(8, restarts=16, seed=1)
    assert seq["stats"]["stops"]["no_decrease"] >= 2
    assert seq["fiducial"].tobytes() == again["fiducial"].tobytes()
    assert (seq["fsic"], seq["restart"]) == (again["fsic"], again["restart"])
    assert seq["stats"] == again["stats"]


def test_search_zauner_starts():
    out = sic.sic_search(5, restarts=4, seed=2, zauner=True)
    assert out["converged"]
    with pytest.raises(ValueError):
        sic.sic_search(4, restarts=2, seed=0, zauner=True)


def test_search_range_errors():
    with pytest.raises(ValueError):
        sic.sic_search(1, restarts=2)
    with pytest.raises(ValueError):
        sic.sic_search(17, restarts=2)
    with pytest.raises(ValueError, match="restarts must be positive"):
        sic.sic_search(3, restarts=0)
    with pytest.raises(ValueError, match="restarts must be positive"):
        mub.search_unbiased6(restarts=0)
    for bad in (np.ones(1), np.ones(33) / math.sqrt(33)):
        with pytest.raises(ValueError, match="between 2 and 32"):
            sic.f_sic(bad)


def test_dim4_fiducial_exact():
    psi = sic.dim4_fiducial()
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    assert sic.f_sic(psi) < 1e-12
    rep = sic.sic_verify(sic.make_candidate(psi))
    assert rep["pass"] and rep["gramDeviation"] < 1e-12


def test_dim4_overlap_phase_pattern():
    phases = sic.overlap_phases(sic.make_candidate(sic.dim4_fiducial()))
    table = phases["phases"]
    assert table.shape == (4, 4)
    u = table[0, 1]
    v = 1.0 / u
    target = np.array([[np.nan, u, -1.0, v],
                       [u, v, -v, v],
                       [-1.0, -u, -1.0, v],
                       [v, u, u, u]], dtype=complex)
    mask = ~np.isnan(target.real)
    assert np.max(np.abs((table - target)[mask])) < 1e-10
    assert abs(table[2, 0] - (-1.0)) < 1e-10
    assert abs(table[2, 0].imag) < 1e-12
    defined = np.abs(table.ravel()[1:])
    assert np.max(np.abs(defined - 1.0)) < 1e-10


def test_u_fingerprint():
    phases = sic.overlap_phases(sic.make_candidate(sic.dim4_fiducial()))
    fp = sic.u_fingerprint(phases)
    assert fp["uDeviation"] < 1e-10
    assert abs(abs(fp["u"]) - 1.0) < 1e-12
    assert fp["minpolyResidual"] < 1e-10
    assert fp["unitResidual"] < 1e-10
    with pytest.raises(ValueError):
        sic.u_fingerprint({"n": 3, "phases": np.zeros((3, 3), dtype=complex)})


def test_verify_perturbed_fiducial_fails():
    rng = np.random.default_rng(6)
    psi = sic.dim4_fiducial() + 1e-3 * (rng.standard_normal(4)
                                        + 1j * rng.standard_normal(4))
    psi = psi / np.linalg.norm(psi)
    rep = sic.sic_verify(sic.make_candidate(psi))
    assert not rep["pass"]
    assert 1e-5 < rep["gramDeviation"] < 1e-1


def test_verify_cached_value_mismatch():
    with pytest.raises(ValueError):
        sic.sic_verify({"n": 4, "fiducial": sic.dim4_fiducial(), "fsic": 0.5})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_input_rejected(bad):
    psi = np.full(4, 0.5, dtype=complex)
    psi[0] = bad
    with pytest.raises(ValueError, match="not a unit vector"):
        sic._check_unit(psi)
    with pytest.raises(ValueError, match="not a unit vector"):
        sic.sic_verify({"n": 4, "fiducial": psi})
    with pytest.raises(ValueError, match="cached fsic"):
        sic.sic_verify({"n": 4, "fiducial": sic.dim4_fiducial(), "fsic": bad})


def test_overlap_phases_requires_verified_candidate():
    with pytest.raises(ValueError):
        sic.overlap_phases(sic.make_candidate(np.array([1.0, 0.0, 0.0])))


def test_three_way_design_cross_check():
    families = {2: qubit_fiducial(), 3: searched(3, 8, 1)["fiducial"],
                4: sic.dim4_fiducial()}
    for n, psi in families.items():
        orbit = sic.sic_orbit(psi)
        assert orbit.shape[0] == designs.tight_bound(n, 2) == n * n
        assert sic.sic_verify(sic.make_candidate(psi))["pass"]
        assert designs.design_test(orbit, 2)["isDesign"]
        assert abs(designs.welch_bound(orbit, 2)["slack"]) < 1e-9
    # the equivalence also holds in the negative
    rng = np.random.default_rng(9)
    bad = sic.dim4_fiducial() + 1e-2 * (rng.standard_normal(4)
                                        + 1j * rng.standard_normal(4))
    bad = bad / np.linalg.norm(bad)
    orbit = sic.sic_orbit(bad)
    assert not sic.sic_verify(sic.make_candidate(bad))["pass"]
    assert not designs.design_test(orbit, 2)["isDesign"]
    assert designs.welch_bound(orbit, 2)["slack"] > 1e-9


@pytest.mark.parametrize("p,restarts", [(3, 8), (5, 32), (7, 16)])
def test_mub_simplex_projections_equal(p, restarts):
    psi = searched(p, restarts, 1)["fiducial"]
    rho = np.outer(psi, psi.conj())
    norms = []
    for basis in mub.ivanovic_mubs(p):
        probs = np.einsum("ia,ij,ja->a", basis.conj(), rho, basis).real
        norms.append(np.linalg.norm(probs - 1.0 / p))
    norms = np.array(norms)
    assert norms.max() - norms.min() < 1e-8
    expected = math.sqrt((p - 1.0) / (p * (p + 1.0)))
    assert np.max(np.abs(norms - expected)) < 1e-8
