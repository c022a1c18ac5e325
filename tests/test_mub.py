import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finhilb import combinat, gf, mub, sic, weyl


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
    bases = mub.subgroup_eigenbases(3)
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


def _ivanovic_oracle(p):
    """The closed form the stabilizer builder replaced: basis 0
    computational, bases x = 1..p-1 with components
    omega^((r-a)^2 / (2x)) / sqrt(p), the inverse taken mod p, and the
    Fourier basis last."""
    pows = np.exp(2j * np.pi * np.arange(p) / p)
    idx = np.arange(p)
    diff2 = np.subtract.outer(idx, idx) ** 2
    bases = [np.eye(p, dtype=complex)]
    for x in range(1, p):
        bases.append(pows[(diff2 * pow(2 * x, p - 2, p)) % p] / np.sqrt(p))
    bases.append(combinat.fourier_matrix(p))
    return bases


def _qubit_oracle():
    """The hand-written eigenbases of Z, -Y = D_{1,1} and X, eigenvalue +1
    first, in the order of the qubit set."""
    s = 1 / np.sqrt(2)
    return [np.eye(2, dtype=complex),
            np.array([[s, s], [-1j * s, 1j * s]], dtype=complex),
            np.array([[s, s], [s, -s]], dtype=complex)]


def test_ivanovic_dim3_matches_golden_columns():
    bases = _ivanovic_oracle(3)
    golden = dim3_golden_set()
    assert len(bases) == 4
    for b, g in zip(bases, golden):
        assert np.abs(b - g).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_ivanovic_matches_closed_form_oracle(p):
    # same column order; each column equal up to one unit phase, which
    # makes component 0 real positive wherever every modulus is 1/sqrt(p)
    bases = mub.subgroup_eigenbases(p)
    assert len(bases) == p + 1
    for b, o in zip(bases, _ivanovic_oracle(p)):
        assert np.abs(np.abs(np.sum(o.conj() * b, axis=0)) - 1).max() \
            <= 1e-12
    for b in bases[1:]:
        assert np.all(b[0].imag == 0) and np.all(b[0].real > 0)


def test_qubit_mubs_match_literal_oracle():
    for b, o in zip(mub.subgroup_eigenbases(2), _qubit_oracle()):
        assert np.abs(b - o).max() <= 1e-15


def test_ivanovic_p5_exhaustive_overlaps():
    bases = mub.subgroup_eigenbases(5)
    assert len(bases) == 6
    report = mub.unbiasedness_check(bases)
    assert report["pass"]
    assert report["max_deviation"] < 1e-10


def test_ivanovic_eigenvector_property():
    for p in [3, 5, 7]:
        bases = mub.subgroup_eigenbases(p)
        w = np.exp(2j * np.pi * np.arange(p) / p)
        gens = ([weyl.displacement(p, 0, 1)]
                + [weyl.displacement(p, x, 1) for x in range(1, p)]
                + [weyl.displacement(p, p - 1, 0)])
        for b, d in zip(bases, gens):
            assert np.abs(d @ b - b * w[None, :]).max() < 1e-10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ivanovic_rejects_nan_displacement(monkeypatch):
    # a NaN residual must fail the eigenbasis gate, not slip past it
    field_form = weyl._field_form

    def poisoned(*args):
        rows, vals = field_form(*args)
        vals = vals.copy()
        vals[0, 0] = np.nan
        return rows, vals

    monkeypatch.setattr(weyl, "_field_form", poisoned)
    with pytest.raises(RuntimeError, match="no joint eigenbasis"):
        mub.subgroup_eigenbases(3)


def test_ivanovic_rejects_bad_p():
    # p = 2 is the qubit set of the same construction
    assert len(mub.subgroup_eigenbases(2)) == 3
    with pytest.raises(ValueError, match="prime"):
        mub.subgroup_eigenbases(9)
    with pytest.raises(ValueError, match="prime"):
        mub.subgroup_eigenbases(4)


def test_qubit_mubs_octahedron():
    bases = mub.subgroup_eigenbases(2)
    report = mub.unbiasedness_check(bases)
    assert report["pass"]
    paulis = [np.diag([1.0, -1.0]),
              np.array([[0, 1j], [-1j, 0]]),
              np.array([[0, 1], [1, 0]], dtype=complex)]
    signs = np.array([1, -1])
    for b, m in zip(bases, paulis):
        assert np.abs(m @ b - b * signs[None, :]).max() < 1e-12


def canonicalize_basis(basis):
    """Fix per-vector phases (first component above 1e-8 made positive
    real) and sort columns lexicographically, so bases that agree up to
    these freedoms compare equal: the oracle that compares a built basis
    with a reference one."""
    b = np.array(basis, dtype=complex)
    above = np.abs(b) > 1e-8
    lead = b[np.argmax(above, axis=0), np.arange(b.shape[1])]
    # a column with no entry above 1e-8 keeps its phase
    lead[~above.any(axis=0)] = 1.0
    b *= lead.conj() / np.abs(lead)
    # keys re(b[0]), im(b[0]), re(b[1]), ...; lexsort's primary key is last
    r = np.round(b, 8)
    keys = np.empty((2 * b.shape[0], b.shape[1]))
    keys[0::2], keys[1::2] = r.real + 0.0, r.imag + 0.0
    return b[:, np.lexsort(keys[::-1])]


def test_canonicalize_strips_phase_and_order():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(a)
    phases = np.exp(2j * np.pi * rng.random(4))
    scrambled = (u * phases[None, :])[:, rng.permutation(4)]
    assert np.abs(canonicalize_basis(u)
                  - canonicalize_basis(scrambled)).max() < 1e-12


def _canonicalize_loop(basis, tol=1e-8):
    """The column-by-column canonicalize_basis, kept as an oracle for the
    vectorized one above."""
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
    for b in mub.subgroup_eigenbases(p, k):
        x = _scrambled(b, rng)
        assert np.abs(canonicalize_basis(x)
                      - _canonicalize_loop(x)).max() <= 1e-12


def test_canonicalize_matches_loop_oracle_petals_and_edge_cases():
    rng = np.random.default_rng(11)
    for b in mub.mermin_landscape()["eigenbases"]:
        x = _scrambled(b, rng)
        assert np.abs(canonicalize_basis(x)
                      - _canonicalize_loop(x)).max() <= 1e-12
    # a column with nothing above tol keeps its phase; tied keys keep
    # their input order, as a stable sort does
    odd = np.array([[1e-9j, 0.5j, 0.5j, -0.0],
                    [0.0, 1.0, 1.0, 2j],
                    [0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(canonicalize_basis(odd), _canonicalize_loop(odd))


def match_families(fam1, fam2, tol=1e-8):
    fam1 = [canonicalize_basis(b) for b in fam1]
    fam2 = [canonicalize_basis(b) for b in fam2]
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
    assert match_families(sub, _ivanovic_oracle(3))


def test_subgroup_eigenbases_qubit_matches_octahedron():
    sub = mub.subgroup_eigenbases(2, 1)
    assert match_families(sub, _qubit_oracle())


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


def _joint_eigenbasis(mats, seed_key):
    """Common eigenbasis of a family of commuting normal matrices, via a
    random Hermitian combination of both quadratures; eigenvectors are
    re-validated against every family member to 1e-8.  The eigensolver
    route the projector builder replaced, kept as its oracle."""
    n = mats[0].shape[0]
    stack = np.stack(mats)
    for attempt in range(5):
        rng = np.random.default_rng(list(seed_key) + [attempt])
        h = np.zeros((n, n), dtype=complex)
        for m in mats:
            a, b = rng.normal(size=2)
            h += a * (m + m.conj().T) + b * 1j * (m - m.conj().T)
        _, vecs = np.linalg.eigh(h)
        # column j of images[f] is mats[f] @ vecs[:, j]
        images = stack @ vecs
        lam = np.einsum("ij,fij->fj", vecs.conj(), images)
        resid = np.linalg.norm(images - lam[:, None, :] * vecs, axis=1)
        worst = float(np.max(resid))
        if worst <= 1e-8:
            return vecs
    raise ValueError(
        "degenerate joint eigenbasis (residual %g after %d attempts)"
        % (worst, attempt + 1))


_FIELDS_TO_32 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                 for k in range(1, 6) if p ** k <= 32]


@pytest.mark.parametrize("p,k", _FIELDS_TO_32)
def test_subgroup_eigenbases_match_eigensolver_oracle(p, k):
    # the oracle diagonalizes all q - 1 displacements of each line, in the
    # order (0, 1), (x, 1) for x = 1..q-1, (-1, 0)
    q = p ** k
    spec = gf.field_make(p, k)
    ts = np.arange(1, q)[:, None]
    directions = [(x, 1) for x in range(q)] + [(p - 1, 0)]
    assert mub.directions(q) == directions
    bases = mub.subgroup_eigenbases(p, k)
    assert len(bases) == len(directions)
    for di, (b, direction) in enumerate(zip(bases, directions)):
        mats = weyl._densify(*weyl._field_form(
            spec, *gf.mul(spec, ts, direction).T))
        oracle = canonicalize_basis(_joint_eigenbasis(mats, (7, di)))
        assert np.abs(canonicalize_basis(b) - oracle).max() <= 1e-10


@functools.lru_cache(maxsize=None)
def _complete_set(p, k):
    return mub.subgroup_eigenbases(p, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_FIELDS_TO_32).flatmap(lambda f: st.tuples(
    st.just(f), st.integers(0, f[0] ** f[1]))))
def test_columns_carry_their_eigenvalue_labels(field_line):
    # column a of basis l has eigenvalue omega^(a_i) under D(a^i d_l),
    # phased so that its p-th power is I; a = (a_0 .. a_(k-1)) in base p
    (p, k), line = field_line
    spec, q = gf.field_make(p, k), p ** k
    basis = _complete_set(p, k)[line]
    digits = np.array(list(itertools.product(range(p), repeat=k)))
    for i in range(k):
        u = gf.mul(spec, p ** i, np.array(mub.directions(q)[line]))
        g = weyl._densify(*weyl._field_form(spec, *u[:, None]))[0]
        g = g / np.linalg.matrix_power(g, p)[0, 0] ** (1.0 / p)
        labels = gf.roots_of_unity(p)[digits[:, i]]
        assert np.abs(g @ basis - basis * labels).max() <= 1e-10


# the single-qubit Pauli matrices written out by hand, the petal tests'
# oracle for the words the landscape builds as forms
_PAULI = {"1": np.eye(2, dtype=complex),
          "X": np.array([[0, 1], [1, 0]], dtype=complex),
          "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
          "Z": np.array([[1, 0], [0, -1]], dtype=complex)}


def _pauli_word(word):
    """The Kronecker product of the word's Pauli matrices, "XZ" -> X (x) Z."""
    return functools.reduce(np.kron, [_PAULI[ch] for ch in word])


def test_petal_eigenbases_match_eigensolver_oracle():
    land = mub.mermin_landscape()
    for i, (petal, b) in enumerate(zip(land["petals"], land["eigenbases"])):
        mats = [_pauli_word(w) for w in petal]
        oracle = canonicalize_basis(_joint_eigenbasis(mats, (11, i)))
        assert np.abs(canonicalize_basis(b) - oracle).max() <= 1e-10


def _dense_stabilizer_basis(gens, p):
    """The projector builder on dense generator matrices: q dense products
    G^b and one (q, q, q) projector stack.  The form-based builder replaced
    it; kept as its oracle, column for column."""
    eye = np.eye(gens[0].shape[0])
    fixed = [g / np.linalg.matrix_power(g, p)[0, 0] ** (1.0 / p) for g in gens]
    prods = [eye]
    for g in fixed:
        prods = [m @ h for m in prods for h in itertools.accumulate(
            [g] * (p - 1), np.matmul, initial=eye)]
    labels = np.array(list(itertools.product(range(p), repeat=len(gens))))
    omega, q = gf.roots_of_unity(p), len(labels)
    proj = np.tensordot(omega[(-labels @ labels.T) % p], prods, 1) / q
    cols = np.argmax(np.diagonal(proj, axis1=1, axis2=2).real, axis=1)
    vecs = proj[np.arange(q), :, cols].T
    return vecs / np.linalg.norm(vecs, axis=0)


def _one_set(rows, vals, p):
    """The builder on the forms (k, n) of one generator set."""
    return mub._stabilizer_basis(rows[None], vals[None], p)[0]


def _line_forms(spec, direction):
    """Forms of the k generators D(a^i * direction) of one line."""
    ts = spec.p ** np.arange(spec.k)[:, None]
    return weyl._field_form(spec, *gf.mul(spec, ts, direction).T)


@pytest.mark.parametrize("p,k", _FIELDS_TO_32)
def test_stabilizer_basis_matches_dense_oracle(p, k):
    spec = gf.field_make(p, k)
    for direction in [(0, 1)] + [(1, e) for e in range(p ** k)]:
        rows, vals = _line_forms(spec, direction)
        oracle = _dense_stabilizer_basis(weyl._densify(rows, vals), p)
        assert np.abs(_one_set(rows, vals, p) - oracle).max() \
            <= 1e-12


def _petal_forms():
    """Forms (15, 2, 4) of the first two words of each petal, built as the
    landscape builds them, from the words' symplectic vectors."""
    bits = np.array([[mub._XZ_BITS[ch] for ch in w]
                     for petal in mub.mermin_landscape()["petals"]
                     for w in petal[:2]])
    rows, vals = weyl._tensor_form(2, bits[..., 0], bits[..., 1])
    return rows.reshape(15, 2, 4), vals.reshape(15, 2, 4)


def test_petal_stabilizer_basis_matches_dense_oracle():
    petals = mub.mermin_landscape()["petals"]
    for petal, rows, vals in zip(petals, *_petal_forms()):
        mats = weyl._densify(rows, vals)
        # each form is its Pauli word up to sign: D_{1,1} = -Y, to
        # rounding in tau = -exp(i pi / 2)
        for m, w in zip(mats, petal):
            assert min(np.abs(m - s * _pauli_word(w)).max()
                       for s in (1, -1)) <= 1e-15
        assert np.abs(_one_set(rows, vals, 2)
                      - _dense_stabilizer_basis(mats, 2)).max() <= 1e-12


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (3, 3), (2, 5), (5, 3)])
def test_blocked_stabilizer_basis_equals_one_call_per_line(p, k):
    # the field_mub sets in one block each, and q = 125 in blocks of 2
    spec = gf.field_make(p, k)
    forms = [_line_forms(spec, direction) for direction
             in [(0, 1)] + [(1, e) for e in range(p ** k)]]
    rows, vals = (np.array(f) for f in zip(*forms))
    blocked = mub._stabilizer_basis(rows, vals, p)
    assert blocked.shape == (p ** k + 1, p ** k, p ** k)
    for b, (r, v) in zip(blocked, forms):
        assert np.array_equal(b, _one_set(r, v, p))


def test_stabilizer_basis_memory_is_blocked():
    # q = 81 runs in blocks of 5 sets: the builder peaks at its output and
    # the blocks it joins, where one block of all 82 sets peaks near 15x
    spec = gf.field_make(3, 4)
    forms = [_line_forms(spec, direction) for direction
             in [(0, 1)] + [(1, e) for e in range(81)]]
    rows, vals = (np.array(f) for f in zip(*forms))
    tracemalloc.start()
    try:
        out = mub._stabilizer_basis(rows, vals, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes


def test_blocked_petal_stabilizer_basis_equals_one_call_per_petal():
    rows, vals = _petal_forms()
    blocked = mub._stabilizer_basis(rows, vals, 2)
    assert np.array_equal(blocked, mub.mermin_landscape()["eigenbases"])
    for b, r, v in zip(blocked, rows, vals):
        assert np.array_equal(b, _one_set(r, v, 2))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_stabilizer_basis_fixes_generator_phases(p, k):
    # a unit multiple of each generator, so G^p is a phase other than 1,
    # spans the same eigenbasis
    rows, vals = _line_forms(gf.field_make(p, k), (1, 1))
    phased = np.exp(1j * (0.7 + np.arange(k)))[:, None] * vals
    assert np.abs(canonicalize_basis(_one_set(rows, phased, p))
                  - canonicalize_basis(_one_set(rows, vals, p))
                  ).max() <= 1e-12


@pytest.mark.parametrize("p", [2, 3])
def test_stabilizer_basis_rejects_noncommuting_generators(p):
    rows, vals = weyl._standard_form(p, np.array([1, 0]), np.array([0, 1]))
    with pytest.raises(RuntimeError, match="joint eigenbasis"):
        _one_set(rows, vals, p)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_stabilizer_basis_rejects_nan_generator(entry):
    # entry (generator, column) of the forms of Z_1 and Z_a in GF(4)
    rows, vals = weyl._field_form(gf.field_make(2, 2), np.array([0, 0]),
                                  np.array([1, 2]))
    assert _one_set(rows, vals, 2).shape == (4, 4)
    vals = vals.copy()
    vals[entry] = np.nan
    with pytest.raises(RuntimeError, match="joint eigenbasis"):
        _one_set(rows, vals, 2)


def test_subgroup_eigenbases_guards():
    with pytest.raises(ValueError, match="prime"):
        mub.subgroup_eigenbases(4, 1)
    with pytest.raises(ValueError, match="too large"):
        mub.subgroup_eigenbases(3, 5)
    with pytest.raises(ValueError, match="too large"):
        mub.subgroup_eigenbases(131, 1)


def test_family_deviations_blocks_agree_with_one_product():
    # q = 64 runs in blocks of 8; a repeated basis in a late block shows,
    # with the value of one product per member against all later ones
    bases = mub.subgroup_eigenbases(2, 6)
    bases[60] = bases[3]
    stack = np.stack(bases)
    whole = np.max([np.abs(np.abs(stack[i].conj().T @ stack[i + 1:]) ** 2
                           - 1 / 64).max() for i in range(64)])
    assert mub.family_deviations(bases)["max_deviation"] == whole == 1 - 1 / 64


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_family_deviations_keeps_a_late_nan():
    # finite entries whose cross product overflows to inf - inf: only the
    # last pair is NaN, after an infinite deviation
    big = 1e200 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, -1 + 1j]])
    assert np.isnan(mub.family_deviations([np.eye(2), big, big])
                    ["max_deviation"])


def test_invariants_fold_family_deviations():
    bases = mub.subgroup_eigenbases(5)
    devs = mub.family_deviations(bases)
    assert list(mub.invariants(bases).items()) == [
        ("orthonormality", max(devs["orthonormality"])),
        ("unbiasedness", devs["max_deviation"])]
    # a late non-finite member is the folded value
    bad = np.concatenate([bases[:-1], np.full_like(bases[-1:], np.nan)])
    assert np.isfinite(bad[:-1]).all()
    assert all(np.isnan(v) for v in mub.invariants(bad).values())


def test_subgroup_eigenbases_dim81():
    # past the old q <= 32 cap; the cross products run in blocks
    bases = mub.subgroup_eigenbases(3, 4)
    assert len(bases) == 82
    report = mub.unbiasedness_check(bases)
    assert report["pass"]
    assert report["max_deviation"] < 1e-12


def test_bloch_orthogonality():
    bases = mub.subgroup_eigenbases(5)
    e = bases[1][:, 2]
    f = bases[4][:, 3]
    pe = np.outer(e, e.conj()) - np.eye(5) / 5
    pf = np.outer(f, f.conj()) - np.eye(5) / 5
    assert abs(np.trace(pe @ pf)) < 1e-12


def test_bbrv_flower_qubit_gives_paulis():
    petals = mub.bbrv_flower(mub.subgroup_eigenbases(2))
    assert len(petals) == 3
    z = np.diag([1.0, -1.0])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    for petal, m in zip(petals, [z, -y, x]):
        assert len(petal) == 2
        assert np.abs(petal[0] - np.eye(2)).max() < 1e-12
        assert np.abs(petal[1] - m).max() < 1e-10


def test_bbrv_flower_dim3():
    petals = mub.bbrv_flower(mub.subgroup_eigenbases(3))
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


def test_bbrv_flower_rejects_a_residual_above_the_matrix_tolerance():
    # one column scaled by 1 + 7.5e-10 puts 1e-9 in the petal Gram at
    # n = 3, above TOL_MATRIX and below the 1e-8 the check used to allow
    bases = mub.subgroup_eigenbases(3).copy()
    bases[0][:, 0] *= 1 + 0.75e-9
    with pytest.raises(ValueError, match=r"residual 1e-09\)"):
        mub.bbrv_flower(bases)


def test_bbrv_flower_rejects_incomplete():
    with pytest.raises(ValueError, match="complete"):
        mub.bbrv_flower(mub.subgroup_eigenbases(2)[:2])


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
            m = basis.conj().T @ _pauli_word(wd) @ basis
            assert np.abs(m - np.diag(np.diag(m))).max() < 1e-10


def test_mermin_mub_sets_and_states():
    land = mub.mermin_landscape()
    assert len(land["mub_sets"]) == 6
    for family in land["mub_sets"]:
        report = mub.unbiasedness_check(family)
        assert report["pass"]
    states = land["stabilizer_states"]
    assert states.shape == (60, 4)
    assert mub.stabilizer_count(2, 2) == 60
    # the columns of the 15 bases, petal by petal, are 60 distinct states:
    # two of them overlap with |<a|b>|^2 of 0, 1/4 or 1/2
    assert np.array_equal(states[4 * 7:4 * 8], land["eigenbases"][7].T)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    assert np.abs(np.diag(overlaps) - 1).max() <= 1e-12
    assert (overlaps[~np.eye(60, dtype=bool)] <= 0.5 + 1e-12).all()


def test_stabilizer_overlaps_take_three_values():
    # of the 60 * 59 ordered pairs, 900 are orthogonal, 1920 unbiased and
    # 720 overlap with 1/2
    states = mub.mermin_landscape()["stabilizer_states"]
    overlaps = np.abs(states.conj() @ states.T) ** 2
    values, counts = np.unique(
        np.round(4 * overlaps[~np.eye(60, dtype=bool)]), return_counts=True)
    assert values.tolist() == [0, 1, 2] and counts.tolist() == [900, 1920,
                                                                 720]
    assert mub.stabilizer_overlap_deviation(states) <= 1e-15


@pytest.mark.parametrize("defect, deviation", [
    (lambda s: s.__setitem__(1, s[0]), 0.5),
    (lambda s: s.__setitem__(7, 1.1 * s[7]), 1.1 ** 4 - 1),
    (lambda s: s.__setitem__((3, 0), np.nan), np.nan)],
    ids=["repeated", "unnormalized", "nan"])
def test_stabilizer_overlap_deviation_sees_a_wrong_state(defect, deviation):
    states = mub.mermin_landscape()["stabilizer_states"].copy()
    defect(states)
    found = mub.stabilizer_overlap_deviation(states)
    assert np.isnan(found) if np.isnan(deviation) else \
        found == pytest.approx(deviation)


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
                 for d1, d2 in mub.directions(p)}
        assert mub.lagrangians(p, 1) == spans


def test_maximal_isotropic_counts():
    assert len(mub.lagrangians(2, 1)) == 3
    assert len(mub.lagrangians(3, 1)) == 4
    assert len(mub.lagrangians(2, 2)) == 15
    assert len(mub.lagrangians(2, 3)) == 135
    assert mub.stabilizer_count(2, 3) == 135 * 8


# every (p, k) the chart enumeration takes: p prime, p^k <= 8
LAGRANGIAN_SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1)]


def _orthogonal(vectors, p):
    """[a, b]: vectors a and b of F_p^{2k}, rows (x1, z1, ..., xk, zk),
    have zero form, sum_i (z_i x'_i - x_i z'_i) over the k pairs."""
    x = np.array(vectors).T
    return sum(x[i + 1, :, None] * x[i, None, :]
               - x[i, :, None] * x[i + 1, None, :]
               for i in range(0, len(x), 2)) % p == 0


@functools.cache
def _brute_force_lagrangians(p, k):
    """The reference enumeration: grow every isotropic basis one vector at
    a time over all of F_p^{2k}, collecting the spans of size p^k."""
    vectors = list(itertools.product(range(p), repeat=2 * k))
    orthogonal = _orthogonal(vectors, p).tolist()

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    found = set()

    def extend(basis, span):
        if len(basis) == k:
            found.add(frozenset(span))
            return
        for i, v in enumerate(vectors):
            if v in span or not all(orthogonal[i][b] for b in basis):
                continue
            new_span = set(span)
            for s in list(span):
                w = s
                for _ in range(p - 1):
                    w = add(w, v)
                    new_span.add(w)
            extend(basis + [i], new_span)

    extend([], {vectors[0]})
    return found


@pytest.mark.parametrize("p,k", LAGRANGIAN_SIZES)
def test_lagrangians_match_the_brute_force_recursion(p, k):
    found = mub.lagrangians(p, k)
    assert found == _brute_force_lagrangians(p, k)
    assert len(found) == np.prod([p ** i + 1 for i in range(1, k + 1)])
    for span in found:
        assert len(span) == p ** k
        assert _orthogonal(sorted(span), p).all()


@pytest.mark.parametrize("p,k", LAGRANGIAN_SIZES)
def test_stabilizer_count_is_states_per_lagrangian(p, k):
    assert mub.stabilizer_count(p, k) == p ** k * len(mub.lagrangians(p, k))


def test_lagrangians_guards():
    with pytest.raises(ValueError, match="prime"):
        mub.lagrangians(4, 1)
    for p, k in ((3, 2), (2, 4), (11, 1)):
        with pytest.raises(ValueError, match="too large"):
            mub.lagrangians(p, k)


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
    # a restart's run does not depend on its block, so two runs from one
    # seed agree exactly
    a = mub.search_unbiased6(restarts=24, seed=3)
    b = mub.search_unbiased6(restarts=24, seed=3)
    assert a["count"] == b["count"]
    assert a["min_value"] == b["min_value"]
    assert a["stats"] == b["stats"]
    assert a["stats"]["restarts"] == 24
    assert a["stats"]["converged"] == sum(
        f < 1e-18 for f in a["stats"]["final_values"])
    if a["count"]:
        assert np.abs(a["vectors"] - b["vectors"]).max() < 1e-9


def test_search_unbiased6_restart_r_starts_from_seed_r():
    out = mub.search_unbiased6(restarts=8, seed=3)
    objective = mub._unbiased6_objective()
    for r in (0, 3, 7):
        start = sic._haar_start(np.random.default_rng([3, r]), 6)
        f = sic.optimize(start[None], *objective)[1]
        assert out["stats"]["final_values"][r] == f[0]


def _distinct_reference(runs, tol):
    # search_unbiased6's dedupe written one hit at a time, with Python's
    # sort and all(): the reference for its array form
    hits = sorted((v * (v[0].conjugate() / abs(v[0])) for v, f in runs
                   if f < tol), key=lambda v: tuple(
        x for c in v for x in (round(c.real, 6), round(c.imag, 6))))
    vectors = []
    for v in hits:
        if all(np.abs(v - u).max() > 1e-6 for u in vectors):
            vectors.append(v)
    return np.array(vectors)


# a hit is a base vector with entry j nudged, times a global phase, with its
# f: nudges either side of the 1e-6 distance and below the rounding of the
# sort keys (ties), phases that leave +-0.0 entries, and f that miss tol
_NUDGES = (0.0, 1e-9, -1e-9, 0.999e-6, -0.999e-6, 1.001e-6, -1.001e-6, 3e-6)
_PHASES = (1.0, -1.0, 1j, -1j, np.exp(0.3j))
_FS = (0.0, 1e-20, 1e-18, 1.0, np.nan)
_HIT = st.tuples(st.integers(0, 3), st.integers(1, 5),
                 st.sampled_from(_NUDGES), st.sampled_from(_PHASES),
                 st.sampled_from(_FS))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(_HIT, min_size=1, max_size=16))
@example(0, [(0, 1, 0.0, 1.0, 1.0)])  # no hit
@example(0, [(0, 1, 0.0, 1.0, 0.0)])  # one hit
@example(0, [(0, 1, 0.0, 1.0, 0.0), (0, 1, 0.0, 1.0, 0.0),
             (0, 2, 1e-9, 1.0, 0.0), (1, 3, 0.0, -1.0, 0.0)])
def test_search6_dedupe_matches_the_one_at_a_time_reference(seed, picks):
    rng = np.random.default_rng(seed)
    base = np.round(rng.standard_normal((4, 6))
                    + 1j * rng.standard_normal((4, 6)), 3)
    base[:, 4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    runs = []
    for i, j, nudge, phase, f in picks:
        v = base[i].copy()
        v[j] += nudge
        runs.append((v * phase, f))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sic, "multistart", lambda *args: (
            runs, {"final_values": [f for _, f in runs]}))
        out = mub.search_unbiased6(restarts=len(runs))
    ref = _distinct_reference(runs, 1e-18)
    assert out["count"] == len(ref)
    assert out["vectors"].tobytes() == ref.tobytes()


def test_unbiased6_gradient_and_jacobian_finite_difference():
    probe, grad_of, jacobian = mub._unbiased6_objective()

    def value(v):
        return probe(v[None])[0][0]

    def residual_jacobian(v):
        d, jac = jacobian(probe(v[None])[1])
        return d[0], jac[0]

    rows = np.vstack([np.eye(6), combinat.fourier_matrix(6).conj().T])
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(20):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = z / np.linalg.norm(z)
        f, state = probe(v[None])
        f, grad = f[0], grad_of(state)[0]
        d, jac = residual_jacobian(v)
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
