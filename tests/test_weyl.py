import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import cli, gf, weyl
from finhilb.tol import TOL_MATRIX


def _clock_shift(n):
    return weyl.displacement(n, 0, 1), weyl.displacement(n, 1, 0)


def _omega(n):
    return np.exp(2j * np.pi / n)


def _symplectic_exponent(p, q):
    """Omega(p, q) = p2*q1 - p1*q2 for index pairs p = (r, s)."""
    return p[1] * q[0] - p[0] * q[1]


def _group_law_residual(n, p, q):
    """The dense per-pair oracle of group_law_max_residual: the max-entry
    distance of D_p D_q from tau**Omega(p,q) D_{p+q} and from
    omega**Omega D_q D_p, each exponent reduced as weyl reduces it."""
    Dp = weyl.displacement(n, *p)
    Dq = weyl.displacement(n, *q)
    lhs = Dp @ Dq
    om = _symplectic_exponent(p, q)
    res_a = np.abs(lhs - weyl.tau_power(n, om) * weyl.displacement(
        n, p[0] + q[0], p[1] + q[1])).max()
    res_b = np.abs(lhs - np.exp(2j * np.pi * (om % n) / n) * (Dq @ Dp)).max()
    return float(np.maximum(res_a, res_b))


def test_clock_shift_pauli():
    Z, X = _clock_shift(2)
    assert np.allclose(Z, np.diag([1, -1]))
    assert np.allclose(X, np.array([[0, 1], [1, 0]]))


def test_clock_shift_dim3_matrices():
    Z, X = _clock_shift(3)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(Z, np.diag([1, w, w ** 2]))
    assert np.allclose(X, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))


def test_clock_shift_order_and_commutation():
    for n in [2, 3, 5]:
        Z, X = _clock_shift(n)
        assert np.allclose(np.linalg.matrix_power(Z, n), np.eye(n), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(X, n), np.eye(n), atol=1e-12)
        assert np.abs(Z @ X - _omega(n) * X @ Z).max() < 1e-12


def test_clock_shift_rejects_small_dim():
    with pytest.raises(ValueError):
        _clock_shift(1)


def test_displacement_identity():
    for n in [2, 3, 4]:
        assert np.allclose(weyl.displacement(n, 0, 0), np.eye(n))


def test_displacement_traces_dim4():
    n = 4
    for r in range(n):
        for s in range(n):
            tr = np.trace(weyl.displacement(n, r, s))
            expected = n if (r == 0 and s == 0) else 0.0
            assert abs(tr - expected) < 1e-12


def test_displacement_dagger_and_order():
    for n in [2, 3, 4, 5]:
        for r in range(n):
            for s in range(n):
                D = weyl.displacement(n, r, s)
                assert np.abs(D.conj().T - weyl.displacement(n, -r, -s)).max() < 1e-12
                Dn = np.linalg.matrix_power(D, n)
                assert np.abs(Dn - np.eye(n)).max() < 1e-11
                assert np.abs(D @ D.conj().T - np.eye(n)).max() < 1e-12


def test_commutator_phase_dim3():
    n = 3
    D11 = weyl.displacement(n, 1, 1)
    D10 = weyl.displacement(n, 1, 0)
    lhs = D11 @ D10
    rhs = _omega(n) * D10 @ D11  # Omega((1,1),(1,0)) = 1
    assert np.abs(lhs - rhs).max() < 1e-12


def test_group_law_exhaustive_dim3():
    n = 3
    for p in [(r, s) for r in range(n) for s in range(n)]:
        for q in [(r, s) for r in range(n) for s in range(n)]:
            assert _group_law_residual(n, p, q) < 1e-12


def test_group_law_same_index_commutes():
    assert _group_law_residual(5, (2, 3), (2, 3)) < 1e-12


def test_dim2_anticommutation():
    X2 = weyl.displacement(2, 1, 0)
    Z2 = weyl.displacement(2, 0, 1)
    assert np.abs(X2 @ Z2 + Z2 @ X2).max() < 1e-12
    assert _group_law_residual(2, (1, 0), (0, 1)) < 1e-12


def test_group_law_and_orthogonality_all_dims():
    for n in [2, 3, 4, 5]:
        assert weyl.group_law_max_residual(n) < 1e-10
        assert weyl.orthogonality_max_residual(n) < 1e-10


# Entries have modulus one and the per-pair and vectorized residuals round
# their products and phases in different orders, so one pair's two
# residuals may differ by a few ulps of 1.
_ROUNDING_SLACK = 4 * np.finfo(float).eps


@st.composite
def _dims_and_pairs(draw):
    n = draw(st.integers(2, 16))
    index = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_dims_and_pairs())
def test_group_law_max_residual_bounds_sampled_pairs(case):
    n, pairs = case
    worst = weyl.group_law_max_residual(n)
    assert worst <= TOL_MATRIX
    for p, q in pairs:
        assert _group_law_residual(n, p, q) <= worst + _ROUNDING_SLACK


def _mutate_phase(t, k, col):
    row = np.flatnonzero(t[k, :, col])[0]
    t[k, row, col] *= np.exp(0.3j)


def _mutate_stray(t, k, col):
    row = np.flatnonzero(t[k, :, col] == 0)[0]
    t[k, row, col] = 1e-6


def _mutate_move(t, k, col):
    t[k, :, col] = np.roll(t[k, :, col], 1)


def _mutate_nan_on_support(t, k, col):
    t[k, np.flatnonzero(t[k, :, col])[0], col] = np.nan


def _mutate_nan_off_support(t, k, col):
    t[k, np.flatnonzero(t[k, :, col] == 0)[0], col] = np.nan


def _mutate_negate(t, k, col):
    # the whole label: a law read up to one sign per pair would forgive it
    t[k] *= -1


_MUTATIONS = [_mutate_phase, _mutate_stray, _mutate_move,
              _mutate_nan_on_support, _mutate_nan_off_support,
              _mutate_negate]


# GF(q) for every q <= 16, the field inputs of the group-law kernel tests
_FIELDS_TO_16 = [gf.field_make(p, k) for p in (2, 3, 5, 7, 11, 13)
                 for k in range(1, 5) if p ** k <= 16]


def _case_id(case):
    return str(case) if isinstance(case, int) else "GF%d" % case.order


def _table(case):
    """The dense displacement table of Z_N (case = N) or of all q^2 labels
    of GF(q) (case = a FieldSpec), entry u1*q + u2 for the latter."""
    if isinstance(case, int):
        return weyl.displacement_table(case)
    return weyl._densify(*weyl._field_form(case, *weyl._field_labels(case)))


def _law(case):
    """The kernel's label tables of a case: (add, pair, modulus), the
    coordinates' addition and the pairing whose diagonal is the tau
    exponent of each label's form, r*s unreduced for Z_N, tr(xy) for
    GF(q)."""
    if isinstance(case, int):
        x = np.arange(case)
        return (x + x[:, None]) % case, np.outer(x, x), case
    x = np.arange(case.order)[:, None]
    return (gf.add(case, x, x.T), gf.field_trace(case, gf.mul(case, x, x.T)),
            case.p)


def _dense_form(mats):
    """Rows and values of each column's largest entry of (K, N, N)
    matrices, and the largest modulus off that support; NaN propagates.
    The kernel's oracles read dense tables back into forms with it."""
    mag = np.abs(mats)
    rows = np.argmax(mag, axis=1)
    vals = np.take_along_axis(mats, rows[:, None, :], axis=1)[:, 0]
    np.put_along_axis(mag, rows[:, None, :], 0.0, axis=1)
    return rows, vals, mag.max()


def _kernel(table, case):
    return weyl._group_law_residual(_dense_form(table), *_law(case))


@pytest.mark.parametrize("case", [4, 5] + _FIELDS_TO_16, ids=_case_id)
@pytest.mark.parametrize("mutate", _MUTATIONS)
def test_group_law_kernel_reads_the_table(case, mutate):
    table = _table(case)
    q = table.shape[1]
    assert _kernel(table, case) <= TOL_MATRIX
    mutate(table, min(q + 2, q * q - 1), 1)
    assert not _kernel(table, case) <= TOL_MATRIX


def _stack_where_group_law(table, case):
    """Reference group-law residual: the np.stack / np.where kernel that
    the gather kernel replaced, one exp per block of first labels a =
    (a1, 0..N-1), its exact exponents written out label by label."""
    n = table.shape[1]
    rows, vals, res = _dense_form(table)
    idx = np.arange(len(table))
    add, pair, m = _law(case)
    b1, b2 = np.divmod(idx, n)
    for a1 in range(n):
        a2 = np.arange(n)[:, None]
        a, c1, c2 = a1 * n + a2, add[a1, b1], add[a2, b2]
        c = c1 * n + c2
        e = pair[a1, a2] + pair[b1, b2] - pair[c1, c2] + 2 * pair[b1, a2]
        om = pair[b1, a2] - pair[a1, b2]
        ab_row = rows[a[..., None], rows]
        ab_val = vals[a[..., None], rows] * vals
        t_row = np.stack([rows[c], rows[idx[:, None], rows[a]]])
        t_val = np.stack([weyl.tau_power(m, e)[..., None] * vals[c],
                          gf.roots_of_unity(m)[om % m][..., None]
                          * vals[idx[:, None], rows[a]] * vals[a]])
        dist = np.where(ab_row == t_row, np.abs(ab_val - t_val),
                        np.maximum(np.abs(ab_val), np.abs(t_val)))
        res = np.maximum(res, dist.max())
    return float(res)


def _same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("case", list(range(2, 17)) + _FIELDS_TO_16,
                         ids=_case_id)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_group_law_kernel_matches_its_oracle_bit_for_bit(case, data):
    table = _table(case)
    n = table.shape[1]
    assert _kernel(table, case) == _stack_where_group_law(table, case)
    for mutate in _MUTATIONS:
        broken = table.copy()
        mutate(broken, data.draw(st.integers(0, n * n - 1), label="label"),
               data.draw(st.integers(0, n - 1), label="column"))
        assert _same_float(_kernel(broken, case),
                           _stack_where_group_law(broken, case)), \
            mutate.__name__


def test_group_law_kernel_keeps_its_blocks():
    # the parent kernel's traced peak at N = 16 was 10.2 MB; an N^5 array
    # (16.8 MB of complex) breaks the bound
    table = weyl.displacement_table(16)
    tracemalloc.start()
    try:
        _kernel(table, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.2e6


@pytest.mark.parametrize("case", [6, 9, gf.field_make(2, 3),
                                  gf.field_make(3, 2)], ids=_case_id)
@pytest.mark.parametrize("mutate", _MUTATIONS)
def test_split_group_law_blocks_are_bit_identical(case, mutate, monkeypatch):
    # one first label per block against the whole N^4 (q^4) block
    table = _table(case)
    mutate(table, 3, 1)
    whole = _kernel(table, case)
    monkeypatch.setattr(weyl, "_LAW_BLOCK", 1)
    assert _same_float(_kernel(table, case), whole)


@pytest.mark.parametrize("check, arg", [
    (weyl.group_law_max_residual, 24),
    (weyl.field_group_law_max_residual, gf.field_make(5, 2))])
def test_group_law_blocks_stay_in_their_budget(check, arg):
    # 2^16-entry blocks peak near 5 MiB here; one N^4 (q^4) block took
    # 23.8 MiB at N = 24 and 27.4 MiB at q = 25
    tracemalloc.start()
    try:
        assert check(arg) <= TOL_MATRIX
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("n", range(2, 17))
def test_group_law_max_residual_is_the_dense_table_path_bit_for_bit(n):
    # the oracle is the former path: the kernel on the dense table's form
    assert weyl.group_law_max_residual(n) == _kernel(_table(n), n)


def test_group_law_and_table_share_the_cap(capsys):
    for fn in (weyl.group_law_max_residual, weyl.displacement_table):
        with pytest.raises(ValueError, match="capped at 32"):
            fn(33)
    assert cli.dispatch(["weyl", "check", "--n", "33"]) == 2
    assert "capped at 32" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 5, 12])
def test_displacement_table_is_a_fresh_writable_array(n):
    first, second = weyl.displacement_table(n), weyl.displacement_table(n)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    first[:] = np.nan
    second[0, 0, 0] = 7.0
    assert _same_bits(weyl.displacement_table(n),
                      weyl._densify(*weyl._table_form(n)))


def test_even_dim_index_shift():
    # D_{r+N,s} = tau^{Ns} D_{r,s}
    for n in [2, 4]:
        for r in range(n):
            for s in range(n):
                lhs = weyl.displacement(n, r + n, s)
                rhs = weyl.tau_power(n, n * s) * weyl.displacement(n, r, s)
                assert np.abs(lhs - rhs).max() < 1e-12


def test_determinants():
    for n in [2, 3, 4, 5]:
        Z, X = _clock_shift(n)
        expected = (-1.0) ** (n + 1)
        assert abs(np.linalg.det(Z) - expected) < 1e-9
        assert abs(np.linalg.det(X) - expected) < 1e-9


def test_expand_identity():
    coef = weyl.expand_operator(np.eye(4))
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    assert np.abs(coef - target).max() < 1e-12


def test_expand_single_displacement():
    n = 5
    coef = weyl.expand_operator(weyl.displacement(n, 2, 1))
    target = np.zeros((n, n), dtype=complex)
    target[2, 1] = 1.0
    assert np.abs(coef - target).max() < 1e-12


def test_expand_roundtrip_random():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coef = weyl.expand_operator(A)
    assert np.abs(weyl.reconstruct_operator(coef) - A).max() < 1e-10


def test_expand_rejects_non_square():
    with pytest.raises(ValueError):
        weyl.expand_operator(np.ones((2, 3)))


# -- finite-field displacements ---------------------------------------------

def _field_displacements(spec, u1, u2):
    """The dense D_u of GF(q) for the label sequences u1, u2."""
    return weyl._densify(*weyl._field_form(spec, np.array(u1, dtype=int),
                                           np.array(u2, dtype=int)))


def _field_displacement(spec, u1, u2):
    return _field_displacements(spec, [u1], [u2])[0]


def test_field_displacement_identity():
    spec = gf.field_make(3, 2)
    assert np.allclose(_field_displacement(spec, 0, 0), np.eye(9))


def test_gf4_clock_and_shift_commute():
    spec = gf.field_make(2, 2)
    X1 = _field_displacement(spec, 1, 0)
    Z1 = _field_displacement(spec, 0, 1)
    assert np.abs(X1 @ Z1 - Z1 @ X1).max() < 1e-12  # tr(1) = 0 in GF(4)


def _trace_product(spec, x, y):
    """tr(x y) as an integer residue 0..p-1."""
    return int(gf.field_trace(spec, gf.mul(spec, x, y)))


def _field_group_law_residual(spec, u, v):
    """Reference per-pair residual: the dense D_u D_v against tau**e
    D_{u+v}, e = tr(u1 u2) + tr(v1 v2) - tr(w1 w2) + 2 tr(v1 u2) for w =
    u + v, and against omega**<u,v> D_v D_u."""
    w = gf.add(spec, u, v)
    cross = _trace_product(spec, v[0], u[1])
    e = _trace_product(spec, *u) + _trace_product(spec, *v) \
        - _trace_product(spec, *w) + 2 * cross
    om = (cross - _trace_product(spec, u[0], v[1])) % spec.p
    du, dv = _field_displacement(spec, *u), _field_displacement(spec, *v)
    lhs = du @ dv
    rhs = weyl.tau_power(spec.p, e) * _field_displacement(spec, *w)
    return max(np.abs(lhs - rhs).max(),
               np.abs(lhs - gf.roots_of_unity(spec.p)[om] * (dv @ du)).max())


def test_field_group_law_gf9_exhaustive():
    spec = gf.field_make(3, 2)
    worst = weyl.field_group_law_max_residual(spec)
    assert worst <= TOL_MATRIX
    for u1 in range(9):
        for u2 in range(9):
            for v1 in range(0, 9, 2):
                for v2 in range(0, 9, 2):
                    assert _field_group_law_residual(
                        spec, (u1, u2), (v1, v2)) <= worst + _ROUNDING_SLACK


@pytest.mark.parametrize("spec", _FIELDS_TO_16, ids=_case_id)
def test_field_group_law_max_residual_within_tolerance(spec):
    assert weyl.field_group_law_max_residual(spec) <= TOL_MATRIX


def test_field_group_law_is_capped():
    with pytest.raises(ValueError, match="capped"):
        weyl.field_group_law_max_residual(gf.field_make(37, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_group_law_catches_one_flipped_column(k, monkeypatch):
    # at p = 2 the tau law is exact, tau = -i read mod 4: flipping one
    # column of one D_u breaks it, and so does flipping one entry of one
    # displacement against its tensor product
    spec = gf.field_make(2, k)
    table = _table(spec)
    table[3, :, 1] *= -1
    assert _kernel(table, spec) > TOL_MATRIX
    field_form = weyl._field_form

    def flipped(*args):
        rows, vals = field_form(*args)
        vals = vals.copy()
        vals[-1, 1] *= -1
        return rows, vals

    monkeypatch.setattr(weyl, "_field_form", flipped)
    assert weyl.tensor_isomorphism(spec)[1]["max_residual"] > TOL_MATRIX


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_prime_field_form_is_the_table_form(p):
    rows, vals = weyl._field_form(gf.field_make(p, 1),
                                  *weyl._field_labels(gf.field_make(p, 1)))
    t_rows, t_vals = weyl._table_form(p)
    assert _same_bits(rows, t_rows) and _same_bits(vals, t_vals)


class _Poly:
    """Schoolbook element of GF(p^k) for the reference loop below: a
    coefficient list, constant first, reduced modulo spec.poly.  Built
    from spec.poly and base-p digits only, not from finhilb.gf."""

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.c = [c % spec.p for c in coeffs]

    @classmethod
    def of(cls, spec, index):
        return cls(spec, [index // spec.p ** j for j in range(spec.k)])

    @property
    def index(self):
        return sum(c * self.spec.p ** j for j, c in enumerate(self.c))

    def __add__(self, other):
        return _Poly(self.spec, [a + b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        k, poly = self.spec.k, self.spec.poly
        out = [0] * (2 * k - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        for d in range(2 * k - 2, k - 1, -1):  # a^d = -sum_i poly_i a^(d-k+i)
            for i in range(k):
                out[d - k + i] -= out[d] * poly[i]
        return _Poly(self.spec, out[:k])

    def trace(self):
        """x + x^p + ... + x^(p^(k-1)), which lies in the prime field."""
        acc = term = self
        for _ in range(self.spec.k - 1):
            prev = term
            for _ in range(self.spec.p - 1):
                term = term * prev
            acc = acc + term
        assert not any(acc.c[1:])
        return acc.c[0]


def _field_displacement_loop(spec, u1, u2):
    """Reference D_u built element by element, traces as Frobenius sums.
    The phases are one scalar tau_power times the column phases read from
    gf.roots_of_unity, multiplied as one array so that the result is
    pinned bit for bit."""
    q = spec.order
    u1, u2 = _Poly.of(spec, u1), _Poly.of(spec, u2)
    ph = weyl.tau_power(spec.p, (u1 * u2).trace())
    rows, traces = [], []
    for j in range(q):
        x = _Poly.of(spec, j)
        rows.append((x + u1).index)
        traces.append((x * u2).trace())
    D = np.zeros((q, q), dtype=complex)
    D[rows, np.arange(q)] = ph * gf.roots_of_unity(spec.p)[traces]
    return D


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_FIELDS_TO_32 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                 for k in range(1, 6) if p ** k <= 32]


@pytest.mark.parametrize("p, k", _FIELDS_TO_32)
def test_field_displacement_matches_elementwise_loop(p, k):
    spec = gf.field_make(p, k)
    q = spec.order
    pairs = [(u1, u2) for u1 in range(q) for u2 in range(q)]
    if spec.order > 9:
        pairs = random.Random(spec.order).sample(pairs, 48)
    for d, (u1, u2) in zip(_field_displacements(spec, *zip(*pairs)), pairs):
        assert _same_bits(d, _field_displacement_loop(spec, u1, u2))
    us, zeros = range(min(q, 16)), [0] * min(q, 16)
    for u, shift, clock in zip(us, _field_displacements(spec, us, zeros),
                               _field_displacements(spec, zeros, us)):
        assert _same_bits(shift, _field_displacement_loop(spec, u, 0))
        assert _same_bits(clock, _field_displacement_loop(spec, 0, u))


def _displacement_loop(n, r, s):
    """Reference D_{r,s}: one scalar tau_power times the column phases,
    written into a zero matrix, as displacement was built before the
    monomial form; the table stacked these one label at a time."""
    ph = weyl.tau_power(n, r * s)
    col = np.arange(n)
    D = np.zeros((n, n), dtype=complex)
    D[(col + r) % n, col] = ph * np.exp(2j * np.pi * ((col * s) % n) / n)
    return D


@pytest.mark.parametrize("n", range(2, 33))
def test_displacement_matches_loop_bit_for_bit(n):
    ref = np.stack([_displacement_loop(n, r, s)
                    for r in range(n) for s in range(n)])
    assert _same_bits(weyl.displacement_table(n), ref)
    for r, s in ((-1, 2), (n + 1, n - 1), (3 * n, -2 * n - 1), (5, 0)):
        assert _same_bits(weyl.displacement(n, r, s),
                          _displacement_loop(n, r, s))
    Z, X = _clock_shift(n)
    assert _same_bits(Z, _displacement_loop(n, 0, 1))
    assert _same_bits(X, _displacement_loop(n, 1, 0))


def test_field_displacement_dagger():
    spec = gf.field_make(5, 1)
    for u1 in range(5):
        for u2 in range(5):
            D = _field_displacement(spec, u1, u2)
            Dd = _field_displacement(spec, gf.neg(spec, u1), gf.neg(spec, u2))
            assert np.abs(D.conj().T - Dd).max() < 1e-12


def test_tensor_isomorphism_k1_identity():
    spec = gf.field_make(5, 1)
    S, report = weyl.tensor_isomorphism(spec)
    assert np.allclose(S, np.eye(5))
    assert report["max_residual"] < 1e-10


def test_tensor_isomorphism_gf9():
    spec = gf.field_make(3, 2)
    S, report = weyl.tensor_isomorphism(spec)
    # permutation matrix: single unit entry per row and column
    assert np.allclose(S @ S.conj().T, np.eye(9))
    assert set(np.abs(S).ravel()) <= {0.0, 1.0}
    assert report["pairs_checked"] == 81
    assert report["max_residual"] < 1e-10
    assert set(report) == {"max_residual", "pairs_checked"}


def test_tensor_isomorphism_gf4_is_exact(monkeypatch):
    # the target carries the exact factor tau**(tr(u1 u2) - x.z), +-1 at
    # p = 2; no sign is fitted, so one displacement negated is caught
    spec = gf.field_make(2, 2)
    S, report = weyl.tensor_isomorphism(spec)
    assert set(report) == {"max_residual", "pairs_checked"}
    assert report["max_residual"] <= 1e-15
    field_form = weyl._field_form

    def negated(*args):
        rows, vals = field_form(*args)
        return rows, np.concatenate([vals[:-1], -vals[-1:]])

    monkeypatch.setattr(weyl, "_field_form", negated)
    assert weyl.tensor_isomorphism(spec)[1]["max_residual"] > TOL_MATRIX


def _dense_tensor_setup(spec):
    """S and the factors' index tables: row x, column i, tr(x * dual_i)
    and tr(x * e_i)."""
    p, k, q = spec.p, spec.k, spec.order
    basis = [p ** d for d in range(k)]
    dual = gf.dual_basis(spec, basis)
    x = np.arange(q)[:, None]
    dual_digits = gf.field_trace(spec, gf.mul(spec, x, dual))
    basis_digits = gf.field_trace(spec, gf.mul(spec, x, basis))
    S = np.zeros((q, q), dtype=complex)
    S[dual_digits @ p ** np.arange(k - 1, -1, -1), np.arange(q)] = 1.0
    return S, dual_digits, basis_digits


def _dense_tensor_residual(spec, setup, u1, u2):
    """max |S D_u S^dag - tau**(tr(u1 u2) - x.z) (x)_i D_{x_i, z_i}|, the
    Kronecker product taken by np.kron."""
    S, dual_digits, basis_digits = setup
    x, z = dual_digits[u1], basis_digits[u2]
    lhs = S @ _field_displacement(spec, u1, u2) @ S.conj().T
    rhs = weyl.tau_power(spec.p, _trace_product(spec, u1, u2) - x @ z) \
        * functools.reduce(np.kron, weyl._densify(
            *weyl._standard_form(spec.p, x, z)))
    return np.abs(lhs - rhs).max()


def _dense_tensor_isomorphism(spec):
    """Reference: S and the per-displacement dense check of S D_u S^dag
    against its exact tensor target, the loop that tensor_isomorphism
    replaced."""
    setup = _dense_tensor_setup(spec)
    worst = 0.0
    for u1 in range(spec.order):
        for u2 in range(spec.order):
            worst = float(np.maximum(worst, _dense_tensor_residual(
                spec, setup, u1, u2)))
    return setup[0], worst


_LAW_FIELDS = [gf.field_make(p, k) for p, k in
               ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4))]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_LAW_FIELDS).flatmap(lambda spec: st.tuples(
    st.just(spec), st.lists(st.integers(0, spec.order - 1), min_size=4,
                            max_size=4))))
def test_exact_law_holds_on_dense_matrices(case):
    # D_a D_b = tau**e D_{a+b} and S D_a S^dag = its exact tensor target,
    # each within TOL_MATRIX with no sign fitted
    spec, (a1, a2, b1, b2) = case
    assert _field_group_law_residual(spec, (a1, a2), (b1, b2)) <= TOL_MATRIX
    setup = _dense_tensor_setup(spec)
    assert _dense_tensor_residual(spec, setup, a1, a2) <= TOL_MATRIX


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_FIELDS_TO_32).flatmap(lambda pk: st.tuples(
    st.just(pk), st.lists(st.lists(st.tuples(st.integers(-70, 70),
                                             st.integers(-70, 70)),
                                   min_size=pk[1], max_size=pk[1]),
                          min_size=1, max_size=4))))
def test_tensor_form_is_the_kron_of_displacements(case):
    (p, k), labels = case
    x, z = np.moveaxis(np.array(labels), -1, 0)
    kron = [functools.reduce(np.kron, [weyl.displacement(p, *xz)
                                       for xz in word]) for word in labels]
    # np.kron multiplies zeros by phases, which can give -0.0; adding
    # 0.0 clears only the sign of a zero
    assert _same_bits(weyl._densify(*weyl._tensor_form(p, x, z)) + 0.0,
                      np.array(kron) + 0.0)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 4), (3, 3)])
def test_tensor_isomorphism_matches_dense_oracle(p, k):
    spec = gf.field_make(p, k)
    S, report = weyl.tensor_isomorphism(spec)
    ref_S, ref_worst = _dense_tensor_isomorphism(spec)
    assert _same_bits(S, ref_S)
    assert abs(report["max_residual"] - ref_worst) <= 1e-15
    assert report["pairs_checked"] == p ** (2 * k)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 3)])
def test_tensor_isomorphism_rejects_a_wrong_dual_basis(p, k, monkeypatch):
    # the basis as its own dual still gives a permutation S, one that is
    # not an involution at (2, 3) and (3, 2), but not a factorization
    spec = gf.field_make(p, k)
    monkeypatch.setattr(gf, "dual_basis", lambda spec, basis: list(basis))
    S, report = weyl.tensor_isomorphism(spec)
    assert report["max_residual"] > TOL_MATRIX
    ref_S, ref_worst = _dense_tensor_isomorphism(spec)
    assert _same_bits(S, ref_S)
    assert abs(report["max_residual"] - ref_worst) <= 1e-15
