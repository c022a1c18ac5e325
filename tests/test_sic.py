import functools
import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from finhilb import designs, gf, mub, sic, weyl
from finhilb.tol import TOL_MATRIX


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
    # a restart's run does not depend on its block, so two runs from one
    # seed agree exactly
    seq = sic.sic_search(3, restarts=6, seed=4)
    again = sic.sic_search(3, restarts=6, seed=4)
    assert seq["restart"] == again["restart"]
    assert np.array_equal(seq["fiducial"], again["fiducial"])


def sic_objective(n, rows=0):
    """f_sic's (probe, grad, jacobian) at dimension n, bound as sic_search
    binds them, for blocks of up to max(rows, _block_rows(n)) vectors."""
    form = sic._gathers(n)
    work = np.empty((max(rows, sic._block_rows(n)), n * n, n), complex)
    return [functools.partial(fn, form=form, work=work)
            for fn in (sic._probe, sic._grad, sic._jacobian)]


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
    new_f, state = sic._probe(psi[None], form)
    assert abs(new_f[0] - f) <= 1e-13 * f
    assert _rel(sic._grad(state, form)[0], g) <= 1e-13
    d_new, jac_new = sic._jacobian(state, form)
    d_ref, jac_ref = _dense_residual_jacobian(psi, table)
    assert _rel(d_new[0], d_ref) <= 1e-13
    assert _rel(jac_new[0], jac_ref) <= 1e-13
    assert _rel(sic.sic_orbit(psi), dpsi) <= 1e-13
    assert _rel(sic._overlaps(psi[None], form)[1][0], c) <= 1e-13


def search_start(n, seed, r):
    # the Haar vector of restart r of multistart(n, seed=seed), before
    # sic_search moves it into the Zauner eigenspace; the descend tests
    # below start from it as it is
    return sic._haar_start(np.random.default_rng([seed, r]), n)


def test_search_restart_r_starts_from_seed_r():
    out = sic.sic_search(8, restarts=16, seed=1)
    proj = sic._zauner_projector(8)
    for r in (0, 6, 15):
        start = proj @ search_start(8, 1, r)
        f = sic.optimize((start / np.linalg.norm(start))[None],
                         *sic_objective(8))[1]
        assert out["stats"]["final_values"][r] == f[0]


def serial_optimize(psi, probe, grad, jacobian):
    """descend and polish on one vector as they ran before the lockstep
    block, with their counts: the reference every row of a block must
    match bit for bit.  It reads the objective through one-row blocks."""
    counts = dict.fromkeys(("value_calls", "grad_calls", "polish_steps",
                            "backtracks"), 0)

    def value(x):
        counts["value_calls"] += 1
        return float(probe(x[None])[0][0])

    def value_grad(x):
        counts["grad_calls"] += 1
        f, state = probe(x[None])
        return float(f[0]), grad(state)[0]

    f, g = value_grad(psi)
    step, prev, f_ref, i_ref, stop = 1.0, None, f, 0, "cap"
    for it in range(sic._MAX_ITER):
        if f < sic._POLISH_TRIGGER:
            stop = "trigger"
            break
        gt = g - np.vdot(psi, g).real * psi
        gn2 = float(np.vdot(gt, gt).real)
        if gn2 == 0.0:
            stop = "no_decrease"
            break
        if prev is not None:
            s, y = psi - prev[0], g - prev[1]
            sy = float(np.vdot(s, y).real)
            step = (min(max(float(np.vdot(s, s).real) / sy, 1e-8), 1e3)
                    if sy > 0.0 else min(step * 2.0, 1e3))
        eta = step
        for _ in range(60):
            cand = psi - eta * gt
            cand = cand / np.linalg.norm(cand)
            fc = value(cand)
            if fc <= f - 1e-4 * eta * gn2:
                break
            eta *= 0.5
            counts["backtracks"] += 1
        else:
            stop = "line_search"
            break
        if not fc < f:
            stop = "no_decrease"
            break
        prev = (psi, g)
        psi = cand
        f, g = value_grad(psi)
        if it - i_ref >= sic._STALL_WINDOW:
            if f_ref - f <= sic._STALL_RTOL * max(f_ref, 1e-300):
                stop = "stall"
                break
            f_ref, i_ref = f, it
    for _ in range(40):
        if f < sic._FTOL:
            break
        counts["polish_steps"] += 1
        d, jac = (a[0] for a in jacobian(probe(psi[None])[1]))
        delta = sic._gn_step(jac[None], d[None])[0]
        step = delta[:psi.size] + 1j * delta[psi.size:]
        scale = 1.0
        for _ in range(20):
            cand = psi + scale * step
            cand = cand / np.linalg.norm(cand)
            fc = value(cand)
            if fc < f:
                psi, f = cand, fc
                break
            scale *= 0.5
            counts["backtracks"] += 1
        else:
            break
    return psi, f, dict(counts, iterations=counts["grad_calls"] - 1,
                        stop=stop)


def multistart_starts(n, restarts, seed, proj=None):
    # the starts of multistart's restarts 0..restarts-1, as a block
    out = []
    for r in range(restarts):
        psi = search_start(n, seed, r)
        if proj is not None and np.linalg.norm(proj @ psi) > 1e-6:
            psi = proj @ psi / np.linalg.norm(proj @ psi)
        out.append(psi)
    return np.array(out)


# smaller stall window and step cap, so that the block's "stall" and "cap"
# stops are compared too; a search never reaches the real ones
LIMITS = {"none": {}, "stall": {"_STALL_WINDOW": 3, "_STALL_RTOL": 0.5},
          "cap": {"_MAX_ITER": 6}}


def assert_block_is_its_rows(block, objective, limits):
    with pytest.MonkeyPatch.context() as mp:
        for name, val in LIMITS[limits].items():
            mp.setattr(sic, name, val)
        psi, f, counts = sic.optimize(block, *objective)
        for i, start in enumerate(block):
            ref = serial_optimize(start, *objective)
            one = sic.optimize(block[i:i + 1], *objective)
            for row in ((psi[i], f[i], {k: v[i] for k, v in counts.items()}),
                        (one[0][0], one[1][0],
                         {k: v[0] for k, v in one[2].items()})):
                assert row[0].tobytes() == ref[0].tobytes()
                assert row[1] == ref[1]
                assert row[2] == ref[2]
    return counts["stop"]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.integers(1, 20), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(sorted(LIMITS)))
@example(8, 16, 1, "none")  # restarts 9 and 11 stop on "no_decrease"
@example(8, 16, 1, "stall")
@example(8, 16, 1, "cap")
@example(12, 20, 2, "none")  # two "line_search" stops
def test_a_sic_block_runs_each_row_as_its_own_run(n, restarts, seed, limits):
    block = multistart_starts(n, restarts, seed, sic._zauner_projector(n))
    stops = assert_block_is_its_rows(block, sic_objective(n, restarts),
                                     limits)
    if (n, restarts, seed) == (8, 16, 1):
        assert {"none": stops[9] == stops[11] == "no_decrease",
                "stall": stops.count("stall") > 1,
                "cap": stops.count("cap") > 1}[limits]
    if (n, restarts, seed) == (12, 20, 2):
        assert stops.count("line_search") == 2


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 20), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(sorted(LIMITS)))
def test_a_search6_block_runs_each_row_as_its_own_run(restarts, seed, limits):
    assert_block_is_its_rows(multistart_starts(6, restarts, seed),
                             mub._unbiased6_objective(), limits)


@pytest.mark.parametrize("n,restarts", [(12, 32), (32, 4)])
def test_search_memory_stays_in_the_block_budget(n, restarts):
    # the block's gather buffer (R N^3 complex entries), the Jacobian's two
    # temporaries (R N^3 each at most) and numpy's temporaries fit in four
    # buffers' worth
    budget = 4 * sic._block_rows(n) * n ** 3 * 16
    sic._gathers(n)
    tracemalloc.start()
    try:
        sic.sic_search(n, restarts, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)


@pytest.mark.parametrize("n,rows", [(2, 8192), (6, 303), (8, 128),
                                    (12, 37), (16, 16), (24, 4), (32, 2)])
def test_block_rows_hold_2_16_gather_entries(n, rows):
    # a 32-restart search at n = 12 is one block, and n = 32 runs two rows
    assert sic._block_rows(n) == rows


def test_search_buffer_has_no_more_rows_than_restarts():
    # an 8-restart search at n = 8 holds 8 gather rows, not the block's 128
    n, restarts = 8, 8
    sic._gathers(n)
    sic.sic_search(n, restarts, seed=0)  # fills the caches of a first search
    tracemalloc.start()
    try:
        sic.sic_search(n, restarts, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sic._block_rows(n) * n ** 3 * 16, peak


def _unit_rows(rng, rows, n):
    return sic._unit(rng.standard_normal((rows, n))
                     + 1j * rng.standard_normal((rows, n)))


def _jacobian_row_by_row(state, form, work):
    # the former loop over rows, the oracle of the batched sic._jacobian
    psi, c, d = state
    n = psi.shape[1]
    hc = sic._shift(psi, form[0], form[1], work)
    np.conj(hc, out=hc)
    jac = hc.view(float)
    dpsi, dc_dy = np.empty((2,) + hc.shape[1:], complex)
    for i, cc in enumerate(c.conj()[:, :, None]):
        sic._shift(psi[i:i + 1], form[2], form[3], dpsi[None])
        np.subtract(hc[i], dpsi, out=dc_dy)
        np.multiply(cc, np.multiply(1j, dc_dy, out=dc_dy), out=dc_dy)
        dc_dx = np.multiply(cc, np.add(dpsi, hc[i], out=dpsi), out=dpsi)
        np.multiply(2.0, dc_dx.real, out=jac[i, :, :n])
        np.multiply(2.0, dc_dy.real, out=jac[i, :, n:])
    jac[:, 0, :] = 0.0
    return d, jac


# n = 27 and 32 gather 2^14 or more entries per row, where _shift
# multiplies in the other order
@pytest.mark.parametrize("n", [2, 5, 8, 12, 27, 32])
def test_batched_jacobian_is_the_row_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    form = sic._gathers(n)
    for rows in sorted({1, 3, sic._block_rows(n)}):
        state = sic._probe(_unit_rows(rng, rows, n), form)[1]
        work = np.empty((2, rows, n * n, n), complex)
        d, jac = sic._jacobian(state, form, work[0])
        d_ref, jac_ref = _jacobian_row_by_row(state, form, work[1])
        assert jac.shape == (rows, n * n, 2 * n)
        assert jac.tobytes() == jac_ref.tobytes()
        assert d.tobytes() == d_ref.tobytes()


def _polish_system(kind, rows, n, seed):
    """A stack of Jacobians and residuals (jac, d) of the kind polish
    solves."""
    rng = np.random.default_rng(seed)
    if kind == "sic":  # each Jacobian has the global phase as a null vector
        form = sic._gathers(n)
        d, a = sic._jacobian(sic._probe(_unit_rows(rng, rows, n), form)[1],
                             form)
        return a, d
    if kind == "search6":  # square, 12 x 12
        probe, _, jacobian = mub._unbiased6_objective()
        d, a = jacobian(probe(_unit_rows(rng, rows, 6))[1])
        return a, d
    k, m = n * n, 2 * n
    a = rng.standard_normal((rows, k, m))
    if kind == "null_column":
        a[:, :, rng.integers(m)] = 0.0
    if kind == "near_null":  # one singular value between eps m and eps k
        u, v = (np.linalg.qr(rng.standard_normal((rows, size, m)))[0]
                for size in (k, m))
        s = np.ones(m)
        s[-1] = np.finfo(float).eps * math.sqrt(k * m)
        a = (u * s) @ v.transpose(0, 2, 1)
    return a, rng.standard_normal((rows, k))


def _gn_step_each(a, d):
    # sic._gn_step on each row as a stack of one
    return np.concatenate([sic._gn_step(a[i:i + 1], d[i:i + 1])
                           for i in range(len(a))])


def _lstsq_step(a, d):
    # np.linalg.lstsq's step for each row, the reference for sic._gn_step
    return np.array([np.linalg.lstsq(j, -e, rcond=None)[0]
                     for j, e in zip(a, d)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["sic", "search6", "full_rank", "null_column",
                        "near_null"]),
       st.integers(1, 6), st.integers(2, 10), st.integers(0, 2 ** 32 - 1))
@example("sic", 1, 5, 0)
@example("search6", 1, 6, 0)
@example("null_column", 1, 3, 0)
@example("near_null", 3, 8, 0)
def test_stacked_gn_step_is_gn_step_row_by_row(kind, rows, n, seed):
    a, d = _polish_system(kind, rows, n, seed)
    x = sic._gn_step(a, d)
    assert x.shape == (rows, a.shape[2])
    assert x.tobytes() == _gn_step_each(a, d).tobytes()


def _off_phase(x, psi):
    # x without its component along the global phase direction i psi,
    # [-Im psi, Re psi] in the real coordinates [Re psi, Im psi]
    v = np.concatenate([-psi.imag, psi.real], axis=1)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return x - np.vecdot(x, v)[:, None] * v


# The damped step solves (J^T J + mu I) x = -J^T d with mu = 1e-14 of the
# mean diagonal; off the phase direction it is the least-squares step up to
# about mu / s^2 for the smallest other singular value s.  Measured: at most
# 6.3e-8 at Haar points (n = 5) and 2.3e-14 at converged points.
GN_TOL = {"haar": 1e-6, "solution": 1e-12}


@pytest.mark.parametrize("where", sorted(GN_TOL))
@pytest.mark.parametrize("n", [4, 5, 8, 12, "search6"])
def test_gn_step_is_the_least_squares_step_off_the_phase(n, where):
    if n == "search6":
        probe, _, jacobian = mub._unbiased6_objective()
        out = mub.search_unbiased6(restarts=24, seed=0)
        solution, n = out["vectors"][:4], 6
    else:
        form = sic._gathers(n)
        probe, jacobian = (functools.partial(fn, form=form)
                           for fn in (sic._probe, sic._jacobian))
        out = searched(n, 8, 1)
        solution = out["fiducial"][None]
        assert out["converged"]
    psi = {"haar": _unit_rows(np.random.default_rng(n), 8, n),
           "solution": solution}[where]
    d, jac = jacobian(probe(psi)[1])
    x, ref = (_off_phase(y, psi) for y in (sic._gn_step(jac, d),
                                           _lstsq_step(jac, d)))
    rel = np.linalg.norm(x - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert rel.max() <= GN_TOL[where], rel.max()


def test_gn_step_is_finite_with_a_second_null_vector():
    # Jacobians with the phase and one more null direction u planted at
    # n = 5, and n = 3 Jacobians, which have a second null vector of their
    # own: the step is finite and fits the residuals as well as the
    # least-squares step, to 1e-8 of |d|
    rng = np.random.default_rng(2)
    psi = _unit_rows(rng, 4, 5)
    form = sic._gathers(5)
    d, a = sic._jacobian(sic._probe(psi, form)[1], form)
    u = _off_phase(rng.standard_normal((4, 10)), psi)
    u /= np.linalg.norm(u, axis=1)[:, None]
    a -= (a @ u[:, :, None]) * u[:, None, :]
    form = sic._gathers(3)
    d3, a3 = sic._jacobian(sic._probe(_unit_rows(rng, 4, 3), form)[1], form)
    for jac, res in ((a, d), (a3, d3)):
        x = sic._gn_step(jac, res)
        fit, best = (np.linalg.norm(np.matvec(jac, y) + res, axis=1)
                     for y in (x, _lstsq_step(jac, res)))
        assert np.isfinite(x).all()
        assert (fit - best <= 1e-8 * np.linalg.norm(res, axis=1)).all()


def test_gn_step_of_an_all_zero_jacobian_is_zero():
    a, d = _polish_system("sic", 3, 4, 1)
    a[1] = 0.0
    x = sic._gn_step(a, d)
    assert not x[1].any()
    assert x.tobytes() == _gn_step_each(a, d).tobytes()


def test_gn_step_of_a_nan_row_is_non_finite_there_only():
    a, d = _polish_system("sic", 3, 4, 1)
    clean = sic._gn_step(a, d)
    a[1, 5, 2] = np.nan
    x = sic._gn_step(a, d)
    assert not np.isfinite(x[1]).all()
    assert x[[0, 2]].tobytes() == clean[[0, 2]].tobytes()


def test_descend_line_search_calls_per_gradient():
    # a restart at its rounding floor must stop, not halve ~40 times per
    # iteration back to a no-op step until the stall window fires (15.9
    # value calls per gradient call over this search)
    probe, grad, _ = sic_objective(8)
    out = sic.descend(np.array([search_start(8, 1, r) for r in range(48)]),
                      probe, grad)
    grad_calls = out["iterations"].sum() + 48
    assert out["value_calls"].sum() <= 3 * grad_calls


def test_descend_stops_at_rounding_floor():
    probe, grad, _ = sic_objective(8)
    out = sic.descend(search_start(8, 1, 6)[None], probe, grad)
    assert out["stop"] == ["no_decrease"] and out["f"][0] > 1e-3
    again = sic.descend(out["psi"], probe, grad)
    assert again["stop"] == ["no_decrease"]
    assert again["iterations"][0] <= 4 and again["value_calls"][0] <= 120
    assert again["f"][0] <= out["f"][0]
    assert again["f"][0] == sic.f_sic(again["psi"][0])


def test_search_stats_keys_and_tally():
    out = sic.sic_search(8, restarts=16, seed=1)
    stats = out["stats"]
    assert set(stats) == {"restarts", "converged", "iterations",
                          "value_calls", "grad_calls", "polish_steps",
                          "backtracks", "final_values", "stops"}
    for key in ("restarts", "converged", "iterations", "value_calls",
                "grad_calls", "polish_steps", "backtracks"):
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
    # a probed candidate is a halving, an accepted step, or the one trial
    # of a line search that ends on "no_decrease"; every Gauss-Newton step
    # but a restart's last failed one is accepted
    ends = stats["value_calls"] - stats["iterations"] - stats["backtracks"]
    assert stats["polish_steps"] - 16 <= ends \
        <= stats["polish_steps"] + stats["stops"]["no_decrease"]


@pytest.mark.parametrize("bad", [0, 3], ids=["first", "last"])
@pytest.mark.parametrize("search", [
    lambda: sic.sic_search(4, restarts=4, seed=1)["fsic"],
    lambda: mub.search_unbiased6(restarts=4, seed=1)["min_value"]],
    ids=["fsic", "min_value"])
def test_a_nan_restart_fails_the_search_wherever_it_falls(monkeypatch,
                                                          search, bad):
    # the four restarts are one block; row `bad` of it comes back NaN
    real = sic.optimize
    blocks = []

    def patched(psi, *objective):
        psi, f, counts = real(psi, *objective)
        blocks.append(len(psi))
        f[bad] = np.nan
        return psi, f, counts

    monkeypatch.setattr(sic, "optimize", patched)
    assert np.isnan(search())
    assert blocks == [4]


def test_search_threads_agree_where_restarts_stall():
    # restarts 9 and 11 of this search stop on "no_decrease"; a rerun from
    # the same seed repeats them exactly
    seq = sic.sic_search(8, restarts=16, seed=1)
    again = sic.sic_search(8, restarts=16, seed=1)
    assert seq["stats"]["stops"]["no_decrease"] >= 2
    assert seq["fiducial"].tobytes() == again["fiducial"].tobytes()
    assert (seq["fsic"], seq["restart"]) == (again["fsic"], again["restart"])
    assert seq["stats"] == again["stats"]


@pytest.mark.parametrize("n,floor", [(4, 88), (5, 142)])
def test_damped_polish_converges_restarts_near_a_rank_loss(n, floor):
    # restarts converged over seeds 0..4; at the local minima where descend
    # stops, near-null directions of J make the least-squares step too long
    # for polish's halvings (68 and 86 converge with it) and the damped step
    # short enough to leave them
    assert sum(sic.sic_search(n, 32, seed)["stats"]["converged"]
               for seed in range(5)) >= floor


def test_search_zauner_starts():
    out = sic.sic_search(5, restarts=4, seed=2)
    assert out["converged"]
    with pytest.raises(ValueError, match="between 2 and 32"):
        sic.sic_search(33, restarts=2, seed=0)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 12, 16])
def test_search_fiducial_stays_in_zauner_eigenspace(n):
    # every restart starts in the eigenspace, and descent and polish keep
    # it there because f_sic is Clifford-invariant
    psi = sic.sic_search(n, 8, 1)["fiducial"]
    proj = sic._zauner_projector(n)
    assert np.linalg.norm(proj @ psi - psi) <= TOL_MATRIX


def _odd_primes(top):
    return [p for p in range(3, top + 1, 2)
            if all(p % k for k in range(3, p, 2))]


ZAUNER = np.array([[0, -1], [1, -1]])


def _zauner_closed_form(n):
    """U[r, s] = tau^(r^2 + 2rs) / sqrt(N), tau = -exp(i pi / N), from one
    roots table: the Zauner unitary every search has started from."""
    m = weyl.nbar(n)
    r, s = np.indices((n, n))
    return gf.roots_of_unity(m)[(n + 1) * m // (2 * n) * (r * r + 2 * r * s)
                                % m] / np.sqrt(n)


@pytest.mark.parametrize("p", _odd_primes(31))
def test_zauner_unitary_is_metaplectic_at_odd_primes(p):
    # at an odd prime the exponent is the textbook (delta r^2 - 2rs + alpha
    # s^2) / (2 beta) mod p, on the same roots table and scaling
    r, s = np.indices((p, p))
    inv2b = pow(-2, -1, p)
    textbook = gf.roots_of_unity(p)[inv2b * (-r * r - 2 * r * s) % p] \
        / np.sqrt(p)
    assert np.array_equal(weyl.metaplectic(ZAUNER, p), textbook)
    assert np.array_equal(_zauner_closed_form(p), textbook)


def _cube_off_scalar(u):
    cube = u @ u @ u
    return np.abs(cube - np.trace(cube) / len(u) * np.eye(len(u))).max()


@pytest.mark.parametrize("n", range(2, 33))
def test_zauner_unitary_order3_clifford(n):
    # bit for bit the closed form, so every search keeps its bytes
    u = weyl.metaplectic(ZAUNER, n)
    assert np.array_equal(u, _zauner_closed_form(n))
    assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-12
    assert _cube_off_scalar(u) <= 1e-12
    # U D U^dag is a displacement up to phase: monomial for every label,
    # so each column's second-largest modulus vanishes
    moved = u @ weyl.displacement_table(n) @ u.conj().T
    assert np.sort(np.abs(moved), axis=1)[:, -2].max() <= TOL_MATRIX
    proj = sic._zauner_projector(n)
    assert np.linalg.matrix_rank(proj, tol=1e-8) == -(-(n + 1) // 3)
    assert np.abs(proj @ proj - proj).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 5, 7, 12])
def test_zauner_cube_check_catches_order4_exponent(n):
    # the first exponent tried, N r^2 + 2rs, gives an order-4 unitary
    m = weyl.nbar(n)
    r, s = np.indices((n, n))
    bad = gf.roots_of_unity(m)[(n + 1) * m // (2 * n) * (n * r * r + 2 * r * s)
                               % m] / np.sqrt(n)
    assert _cube_off_scalar(bad) > 0.3


def test_search_range_errors():
    with pytest.raises(ValueError):
        sic.sic_search(1, restarts=2)
    with pytest.raises(ValueError, match="between 2 and 32"):
        sic.sic_search(33, restarts=2)
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
    for basis in mub.subgroup_eigenbases(p):
        probs = np.einsum("ia,ij,ja->a", basis.conj(), rho, basis).real
        norms.append(np.linalg.norm(probs - 1.0 / p))
    norms = np.array(norms)
    assert norms.max() - norms.min() < 1e-8
    expected = math.sqrt((p - 1.0) / (p * (p + 1.0)))
    assert np.max(np.abs(norms - expected)) < 1e-8
