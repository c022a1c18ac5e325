"""End-to-end acceptance gates: one test per criterion, each asserting its
stated tolerances and wall-clock budget."""

import math
import time

import numpy as np

from finhilb import clifford, combinat, designs, gf, mub, sic, weyl, wigner


def _done(number, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, "criterion %d exceeded %gs (%.2fs)" % (
        number, budget, elapsed)
    print("criterion %02d (%s): PASS in %.2fs" % (number, label, elapsed))


def test_criterion_01_displacement_operator_basis():
    t0 = time.monotonic()
    for n in (2, 3, 4, 5, 7, 8):
        assert weyl.orthogonality_max_residual(n) < 1e-10
        assert weyl.group_law_max_residual(n) < 1e-10
    _done(1, "displacement basis", t0, 10.0)


def test_criterion_02_gf8_golden_table():
    t0 = time.monotonic()
    spec = gf.field_make(2, 3)
    a = gf.primitive_element(spec)
    rows = np.array([0, 1] + [gf.power(spec, a, i) for i in range(1, 7)])
    assert len(rows) == 8
    squares = gf.mul(spec, rows, rows)
    assert gf.field_trace(spec, rows).tolist() == [0, 1, 0, 0, 1, 0, 1, 1]
    assert gf.field_trace(spec, squares).tolist() == [0, 1, 0, 0, 1, 0, 1, 1]
    assert gf.multiplicative_order(spec, rows[1:]).tolist() == [1] + [7] * 6
    _done(2, "GF(8) table", t0, 1.0)


def test_criterion_03_ivanovic_mubs():
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        bases = mub.subgroup_eigenbases(p)
        assert len(bases) == p + 1
        report = mub.unbiasedness_check(bases, tol=1e-10)
        assert report["pass"] and report["max_deviation"] < 1e-10
    w = np.exp(2j * np.pi / 3)
    s = 1 / np.sqrt(3)
    golden = [np.eye(3, dtype=complex),
              s * np.array([[1, w ** 2, w ** 2], [w ** 2, 1, w ** 2],
                            [w ** 2, w ** 2, 1]]).T,
              s * np.array([[1, w, w], [w, 1, w], [w, w, 1]]).T,
              s * np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]]).T]
    # equal up to column phases and order: |<b_i|t_j>|^2 is a permutation
    for built, target in zip(mub.subgroup_eigenbases(3), golden):
        ov = np.abs(built.conj().T @ target) ** 2
        assert np.abs(ov - np.round(ov)).max() < 1e-10
        assert (np.round(ov).sum(axis=0) == 1).all()
        assert (np.round(ov).sum(axis=1) == 1).all()
    _done(3, "ivanovic mubs", t0, 30.0)


def test_criterion_04_mermin_landscape():
    t0 = time.monotonic()
    land = mub.mermin_landscape()
    assert len(land["petals"]) == 15
    assert len(land["flowers"]) == 6
    for flower in land["flowers"]:
        assert len([p for p in flower if p <= 6]) == 2
    assert len(land["stabilizer_states"]) == 60
    assert mub.stabilizer_count(2, 2) == 60
    _done(4, "mermin landscape", t0, 10.0)


def test_criterion_05_werner_bases():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    for n in (2, 3, 4, 5):
        squares = [combinat.latin_from_group(n)]
        if gf.is_prime(n) or n == 4:
            squares.extend(combinat.mols_from_field(n))
        base = squares[0]
        perm = rng.permutation(n)
        squares.append(base[perm][:, rng.permutation(n)])
        hadamards = [combinat.fourier_matrix(n)]
        if n == 4:
            hadamards.extend(combinat.family4(t) for t in (0.0, 0.5, np.pi / 2))
        eye = np.eye(n * n)
        for latin in squares:
            for had in hadamards:
                vecs = combinat.werner_basis(latin, had)
                assert np.max(np.abs(vecs @ vecs.conj().T - eye)) < 1e-10
                for v in vecs:
                    for rho in combinat.reduced_density_matrices(v, n):
                        assert np.max(np.abs(rho - np.eye(n) / n)) < 1e-10
    _done(5, "werner bases", t0, 10.0)


def test_criterion_06_discrete_wigner():
    t0 = time.monotonic()
    rng = np.random.default_rng(21)
    for n in (3, 5, 7):
        pps = wigner.phase_point_set(n)
        parity = pps[0, 0]
        # coherent identity pair: parity squares to one, Fourier squares
        # to parity
        assert np.max(np.abs(parity @ parity - np.eye(n))) < 1e-12
        four = combinat.fourier_matrix(n)
        assert np.max(np.abs(four @ four - parity)) < 1e-12
        gram = np.einsum("abij,cdji->abcd", pps, pps).real / n
        target = np.zeros((n, n, n, n))
        for a in range(n):
            for b in range(n):
                target[a, b, a, b] = 1.0
        assert np.max(np.abs(gram - target)) < 1e-10
        m = (n + 1) // 2
        vals = np.linalg.eigvalsh(parity)
        assert np.max(np.abs(vals[:m - 1] + 1.0)) < 1e-10
        assert np.max(np.abs(vals[m - 1:] - 1.0)) < 1e-10
        rho = wigner.random_density(rng, n)
        wtab = wigner.wigner_function(rho, pps)
        assert np.max(np.abs(wigner.reconstruct_state(wtab, pps) - rho)) < 1e-10
    for n in (3, 5):
        pps = wigner.phase_point_set(n)
        # line averages of phase-point operators are the MUB projectors
        assert max(e["max_residual"] for e in wigner.mub_line_map(pps)) < 1e-10
        # and summing the n+1 projectors through a point recovers A_v
        for r in range(n):
            for s in range(n):
                acc = -np.eye(n, dtype=complex)
                for direction in mub.directions(n):
                    d1, d2 = direction
                    c = (d2 * r - d1 * s) % n
                    acc += wigner.line_average(pps, direction, c)
                assert np.max(np.abs(acc - pps[r, s])) < 1e-10
    assert wigner.covariance_residuals(
        3, clifford.sl2_enumerate(3)).max() < 1e-10
    for p in (5, 7):
        group = clifford.sl2_enumerate(p)
        picks = rng.choice(len(group), size=50, replace=False)
        assert wigner.covariance_residuals(p, group[picks]).max() < 1e-10
    _done(6, "discrete wigner", t0, 60.0)


def test_criterion_07_metaplectic_representation():
    t0 = time.monotonic()
    rng = np.random.default_rng(22)
    for p in (3, 5, 7):
        group = clifford.sl2_enumerate(p)
        assert len(group) == p * (p * p - 1)
        if p == 3:
            sample = group
        else:
            sample = [group[i]
                      for i in rng.choice(len(group), size=100, replace=False)]
        assert max(clifford.normalizer_residual(g, p) for g in sample) < 1e-10
        parity_dev = np.max(np.abs(
            weyl.metaplectic(-np.eye(2, dtype=int), p)
            - wigner.parity_operator(p)))
        assert parity_dev < 1e-12
    _done(7, "metaplectic representation", t0, 30.0)


def _qubit_fiducial():
    a = math.sqrt((1.0 + 1.0 / math.sqrt(3.0)) / 2.0)
    b = math.sqrt((1.0 - 1.0 / math.sqrt(3.0)) / 2.0)
    return np.array([a, b * np.exp(1j * np.pi / 4.0)])


def test_criterion_08_designs():
    t0 = time.monotonic()
    families = {p ** k: mub.subgroup_eigenbases(p, k)
                for p, k in ((2, 1), (3, 1), (2, 2), (5, 1))}
    for n, bases in families.items():
        family = np.hstack(bases).T
        for t in (1, 2):
            out = designs.design_test(family, t, tol=1e-9)
            assert out["isDesign"]
            assert abs(out["value"] - out["target"]) < 1e-9
        if n >= 3:
            out = designs.design_test(family, 3, tol=1e-9)
            assert not out["isDesign"]
            assert out["value"] - out["target"] > 1e-9
    octa = np.hstack(mub.subgroup_eigenbases(2)).T
    out = designs.design_test(octa, 3, tol=1e-9)
    assert out["isDesign"] and abs(out["value"] - out["target"]) < 1e-9
    sics = {2: _qubit_fiducial(),
            3: sic.sic_search(3, restarts=8, seed=1)["fiducial"],
            4: sic.dim4_fiducial()}
    for n, psi in sics.items():
        orbit = sic.sic_orbit(psi)
        slack = designs.welch_bound(orbit, 2)["slack"]
        assert abs(slack) < 1e-9
    _done(8, "designs", t0, 10.0)


def test_criterion_09_sic_search_ladder():
    t0 = time.monotonic()
    restarts = {2: 8, 3: 8, 4: 16, 5: 32, 6: 32, 7: 32, 8: 48}
    for n in range(2, 9):
        out = sic.sic_search(n, restarts=restarts[n], seed=1)
        assert out["fsic"] < 1e-12, "n=%d stalled at %g" % (n, out["fsic"])
        report = sic.sic_verify(out)
        assert report["pass"] and report["gramDeviation"] < 1e-8
        scan = clifford.zauner_scan(out["fiducial"], n)
        assert scan["residual"] < 1e-6
    # a composite N near the top of the 2..32 range
    out = sic.sic_search(24, restarts=32, seed=7)
    assert out["fsic"] < 1e-12, "n=24 stalled at %g" % out["fsic"]
    report = sic.sic_verify(out)
    assert report["pass"] and report["gramDeviation"] < 1e-8
    _done(9, "sic search ladder", t0, 600.0)


def test_criterion_10_dimension4_fingerprint():
    t0 = time.monotonic()
    psi = sic.dim4_fiducial()
    assert sic.f_sic(psi) < 1e-12
    phases = sic.overlap_phases(sic.make_candidate(psi))
    table = phases["phases"]
    u = table[0, 1]
    v = 1.0 / u
    pattern = np.array([[np.nan, u, -1.0, v],
                        [u, v, -v, v],
                        [-1.0, -u, -1.0, v],
                        [v, u, u, u]], dtype=complex)
    mask = ~np.isnan(pattern.real)
    assert np.max(np.abs((table - pattern)[mask])) < 1e-10
    fingerprint = sic.u_fingerprint(phases)
    assert fingerprint["uDeviation"] < 1e-10
    assert fingerprint["minpolyResidual"] < 1e-8
    assert fingerprint["unitResidual"] < 1e-8
    _done(10, "dimension-4 fingerprint", t0, 1.0)


def test_criterion_11_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    h = 1e-6
    for n in (3, 4, 5):
        for _ in range(20):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi = z / np.linalg.norm(z)
            grad = sic.f_sic_grad(psi)
            fd = np.zeros(n, dtype=complex)
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                fd[j] = ((sic.f_sic(psi + h * e) - sic.f_sic(psi - h * e))
                         + 1j * (sic.f_sic(psi + 1j * h * e)
                                 - sic.f_sic(psi - 1j * h * e))) / (2.0 * h)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(grad) < 1e-6
    _done(11, "gradient check", t0, 5.0)
