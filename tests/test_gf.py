import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import gf

# every field of order at most 81
SMALL_FIELDS = [(p, k) for p in range(2, 82) if gf.is_prime(p)
                for k in range(1, 7) if p ** k <= 81]


# fields for the law checks, of orders 1024, 729, 625 and 343
LAW_FIELDS = [(2, 10), (3, 6), (5, 4), (7, 3)]


def gf8():
    return gf.field_make(2, 3)


def alpha_powers(spec):
    """Powers 1, a, a^2, ..., a^(q-2) of the canonical generator a = p."""
    return gf.power(spec, spec.p, np.arange(spec.order - 1))


# -- schoolbook reference: coefficient lists, constant first -----------------

def school_digits(spec, i):
    return [i // spec.p ** j % spec.p for j in range(spec.k)]


def school_index(spec, c):
    return sum(cj * spec.p ** j for j, cj in enumerate(c))


def school_mul(spec, a, b):
    """a*b by long multiplication, then a^d = -sum_i poly_i a^(d-k+i) for
    the degrees d >= k from the top down."""
    k = spec.k
    out = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for d in range(2 * k - 2, k - 1, -1):
        c, out[d] = out[d], 0
        for i in range(k):
            out[d - k + i] -= c * spec.poly[i]
    return [c % spec.p for c in out[:k]]


def school_frobenius_trace(spec, i):
    """x + x^p + ... + x^(p^(k-1)) as a coefficient list."""
    x = school_digits(spec, i)
    acc = term = x
    for _ in range(spec.k - 1):
        prev = term
        for _ in range(spec.p - 1):
            term = school_mul(spec, term, prev)
        acc = [(a + b) % spec.p for a, b in zip(acc, term)]
    return acc


def test_field_make_smallest_modulus():
    assert gf.field_make(2, 1).poly == (0, 1)
    assert gf8().poly == (1, 1, 0, 1)          # x^3 + x + 1
    assert gf.field_make(3, 2).poly == (1, 0, 1)  # x^2 + 1
    assert gf.field_make(2, 2).poly == (1, 1, 1)  # x^2 + x + 1


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError, match="not prime"):
        gf.field_make(4, 1)
    with pytest.raises(ValueError, match="not prime"):
        gf.field_make(1, 2)
    with pytest.raises(ValueError):
        gf.field_make(2, 0)
    with pytest.raises(ValueError):
        gf.field_make(2, 21)


def test_field_make_deterministic():
    assert gf.field_make(5, 3) == gf.field_make(5, 3)


def test_eight_element_table_traces_and_orders():
    # golden rows of the eight-element field, listed by powers of a:
    # elements 0, 1, a, a^2, a^3, a^4, a^5, a^6
    spec = gf8()
    rows = np.array([0] + alpha_powers(spec).tolist())
    traces = gf.field_trace(spec, rows).tolist()
    assert traces == [0, 1, 0, 0, 1, 0, 1, 1]
    # in characteristic 2, tr(x^2) = tr(x)
    assert gf.field_trace(spec, gf.mul(spec, rows, rows)).tolist() == traces
    orders = [None] + gf.multiplicative_order(spec, rows[1:]).tolist()
    assert orders == [None, 1, 7, 7, 7, 7, 7, 7]


def test_eight_element_table_polynomial_forms():
    spec = gf8()
    a = 2
    digits = gf.digit_table(spec)
    a3 = gf.power(spec, a, 3)
    assert tuple(digits[a3]) == (1, 1, 0)                    # a^3 = a + 1
    assert tuple(digits[gf.power(spec, a, 4)]) == (0, 1, 1)  # a^4 = a^2 + a
    assert tuple(digits[gf.power(spec, a, 5)]) == (1, 1, 1)
    assert tuple(digits[gf.power(spec, a, 6)]) == (1, 0, 1)
    assert gf.power(spec, a, 7) == 1


def test_arith_dispatch():
    # each table-driven operation on the eight-element field, on scalars and
    # elementwise on index arrays
    spec = gf8()
    a = 2
    a3 = gf.power(spec, a, 3)
    assert gf.mul(spec, a, gf.mul(spec, a, a)) == a3
    assert gf.add(spec, a3, 0) == a3
    assert gf.power(spec, a, 7) == 1
    assert gf.mul(spec, gf.inverse(spec, a), a) == 1
    xs = np.arange(1, 8)
    assert (gf.mul(spec, gf.inverse(spec, xs), xs) == 1).all()
    assert (gf.add(spec, xs, gf.neg(spec, xs)) == 0).all()


def test_division_by_zero():
    spec = gf8()
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        gf.inverse(spec, 0)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        gf.inverse(spec, [3, 0, 5])


def test_index_out_of_range_rejected():
    spec = gf8()
    for bad in (-1, 8, [0, 8]):
        with pytest.raises(ValueError, match="out of range"):
            gf.mul(spec, bad, 1)
    with pytest.raises(ValueError, match="more than k"):
        gf.element(spec, [1, 0, 0, 1])


@pytest.mark.parametrize("p, k", SMALL_FIELDS)
def test_arithmetic_matches_schoolbook(p, k):
    spec = gf.field_make(p, k)
    q = spec.order
    digits = [school_digits(spec, i) for i in range(q)]
    prod = [[school_index(spec, school_mul(spec, a, b)) for b in digits]
            for a in digits]
    x = np.arange(q)
    assert gf.mul(spec, x[:, None], x).tolist() == prod
    assert gf.add(spec, x[:, None], x).tolist() == [
        [school_index(spec, [(ai + bi) % p for ai, bi in zip(a, b)])
         for b in digits] for a in digits]
    assert gf.neg(spec, x).tolist() == [
        school_index(spec, [-c % p for c in a]) for a in digits]
    assert gf.inverse(spec, x[1:]).tolist() == [row.index(1) for row in prod[1:]]
    assert [gf.element(spec, a) for a in digits] == list(range(q))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_field_laws(data):
    p, k = data.draw(st.sampled_from(LAW_FIELDS))
    spec = gf.field_make(p, k)
    x, y, z = [data.draw(st.integers(0, spec.order - 1)) for _ in range(3)]
    add, mul = functools.partial(gf.add, spec), functools.partial(gf.mul, spec)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert gf.power(spec, x, spec.order) == x
    frob = functools.partial(gf.power, spec, e=p)
    assert frob(add(x, y)) == add(frob(x), frob(y))
    assert frob(mul(x, y)) == mul(frob(x), frob(y))


def test_trace_in_prime_subfield_and_linear():
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        spec = gf.field_make(p, k)
        traces = gf.field_trace(spec, np.arange(spec.order))
        assert ((0 <= traces) & (traces < p)).all()
        # a in the prime subfield is the element of index a
        els = np.arange(min(spec.order, 9))
        for a in range(p):
            ax = gf.mul(spec, a, els[:, None])
            lhs = gf.field_trace(spec, gf.add(spec, ax, els))
            rhs = (a * traces[els, None] + traces[els]) % p
            assert (lhs == rhs).all()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_linear_trace_equals_frobenius_sum(data):
    p, k = data.draw(st.sampled_from(SMALL_FIELDS))
    spec = gf.field_make(p, k)
    x = data.draw(st.integers(0, spec.order - 1))
    y = data.draw(st.integers(0, spec.order - 1))
    acc = school_frobenius_trace(spec, x)
    assert acc[1:] == [0] * (k - 1)
    assert gf.field_trace(spec, x) == acc[0]
    # the trace form evaluates tr(x y) from coefficient vectors
    form = int(np.array(school_digits(spec, x)) @ gf.trace_form(spec)
               @ np.array(school_digits(spec, y)))
    assert form % p == gf.field_trace(spec, gf.mul(spec, x, y))


def test_trace_of_one_in_four_element_field():
    assert gf.field_trace(gf.field_make(2, 2), 1) == 0


def test_frobenius_closure_exhaustive():
    for p, k in [(2, 3), (3, 2), (2, 4), (5, 2), (2, 9), (3, 5)]:
        spec = gf.field_make(p, k)
        if spec.order > 512:
            continue
        q = spec.order
        x = np.arange(q)
        assert (gf.power(spec, x, q) == x).all()
        assert (gf.power(spec, x[1:], q - 1) == 1).all()


def test_dual_basis_goldens():
    spec = gf8()
    a = 2
    a2 = gf.mul(spec, a, a)
    dual = gf.dual_basis(spec, [1, a, a2])
    assert dual == [1, a2, a]
    self_dual = gf.power(spec, a, [3, 5, 6]).tolist()
    assert gf.dual_basis(spec, self_dual) == self_dual


def test_dual_basis_defining_property_and_involution():
    for p, k in [(2, 3), (3, 2), (5, 2)]:
        spec = gf.field_make(p, k)
        basis = [gf.element(spec, [0] * d + [1]) for d in range(k)]
        dual = gf.dual_basis(spec, basis)
        for i, e in enumerate(basis):
            for j, f in enumerate(dual):
                assert gf.field_trace(spec, gf.mul(spec, e, f)) == (1 if i == j else 0)
        assert gf.dual_basis(spec, dual) == basis


def test_dual_basis_k1_trivial():
    spec = gf.field_make(5, 1)
    assert gf.dual_basis(spec, [1]) == [1]


def test_dual_basis_rejects_dependent_input():
    spec = gf8()
    a = 2
    with pytest.raises(ValueError, match="not a basis"):
        gf.dual_basis(spec, [a, a, gf.mul(spec, a, a)])


def test_primitive_element():
    spec = gf8()
    g = gf.primitive_element(spec)
    assert g == 2
    assert gf.multiplicative_order(spec, g) == 7
    assert gf.primitive_element(gf.field_make(2, 1)) == 1
    spec9 = gf.field_make(3, 2)
    assert gf.multiplicative_order(spec9, gf.primitive_element(spec9)) == 8


def _order_by_divisors(spec, x):
    """The least divisor n of q - 1 with x**n = 1, each divisor's power
    taken from scratch: the loop the prime-by-prime order replaced, kept
    as its oracle."""
    q1 = spec.order - 1
    order = np.zeros(x.shape, dtype=np.int64)
    for n in range(1, q1 + 1):
        if q1 % n == 0:
            order = np.where((order == 0) & (gf.power(spec, x, n) == 1), n,
                             order)
    return order


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_order_matches_divisor_loop(p, k):
    spec = gf.field_make(p, k)
    x = np.arange(1, spec.order)
    assert gf.multiplicative_order(spec, x).tolist() \
        == _order_by_divisors(spec, x).tolist()
    assert gf.multiplicative_order(spec, 1) == 1
    # x**order is 1
    assert np.all(gf.power(spec, x, gf.multiplicative_order(spec, x)) == 1)


def test_element_enumeration_order():
    spec = gf.field_make(3, 2)
    digits = gf.digit_table(spec)
    assert [gf.element(spec, c) for c in digits] == list(range(9))
    assert tuple(digits[3]) == (0, 1)   # index p is the generator a
    assert tuple(digits[4]) == (1, 1)
    assert gf.element(spec, [0, 1]) == 3


def test_prime_power_helper():
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(9) == (3, 2)
    assert gf.prime_power(7) == (7, 1)
    assert gf.prime_power(6) is None
    assert gf.prime_power(12) is None
    assert gf.prime_power(1) is None
