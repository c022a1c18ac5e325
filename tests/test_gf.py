import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finhilb import gf

# every field of order at most 81
SMALL_FIELDS = [(p, k) for p in range(2, 82) if gf.is_prime(p)
                for k in range(1, 7) if p ** k <= 81]


def gf8():
    return gf.field_make(2, 3)


def alpha_powers(spec):
    """Powers 1, a, a^2, ... of the canonical generator a."""
    a = gf.element(spec, spec.p)
    out = [gf.one(spec)]
    for _ in range(spec.order - 2):
        out.append(out[-1] * a)
    return out


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
    a = gf.element(spec, 2)
    rows = [gf.zero(spec)] + [gf.one(spec)] + [a ** j for j in range(1, 7)]
    traces = [gf.field_trace(x) for x in rows]
    assert traces == [0, 1, 0, 0, 1, 0, 1, 1]
    # in characteristic 2, tr(x^2) = tr(x)
    assert [gf.field_trace(x * x) for x in rows] == traces
    orders = [None] + [gf.multiplicative_order(x) for x in rows[1:]]
    assert orders == [None, 1, 7, 7, 7, 7, 7, 7]


def test_eight_element_table_polynomial_forms():
    spec = gf8()
    a = gf.element(spec, 2)
    assert (a ** 3).coeffs == (1, 1, 0)       # a^3 = a + 1
    assert (a ** 4).coeffs == (0, 1, 1)       # a^4 = a^2 + a
    assert (a ** 5).coeffs == (1, 1, 1)
    assert (a ** 6).coeffs == (1, 0, 1)
    assert a ** 7 == gf.one(spec)


def test_arith_dispatch():
    spec = gf8()
    a = gf.element(spec, 2)
    assert gf.field_arith(a, a * a, "mul") == a ** 3
    assert gf.field_arith(a ** 3, gf.zero(spec), "add") == a ** 3
    assert gf.field_arith(a, 7, "pow") == gf.one(spec)
    assert gf.field_arith(a, None, "inv") * a == gf.one(spec)
    with pytest.raises(ValueError):
        gf.field_arith(a, a, "sub?")


def test_division_by_zero():
    spec = gf8()
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        gf.zero(spec).inv()


def test_mixed_specs_rejected():
    x = gf.one(gf8())
    y = gf.one(gf.field_make(3, 2))
    with pytest.raises(ValueError, match="mixed field specs"):
        x + y


def test_trace_in_prime_subfield_and_linear():
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        spec = gf.field_make(p, k)
        els = gf.elements(spec)
        for x in els:
            assert 0 <= gf.field_trace(x) < p
        for a in range(p):
            for x in els[: min(len(els), 9)]:
                for y in els[: min(len(els), 9)]:
                    lhs = gf.field_trace(a * x + y)
                    rhs = (a * gf.field_trace(x) + gf.field_trace(y)) % p
                    assert lhs == rhs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_linear_trace_equals_frobenius_sum(data):
    p, k = data.draw(st.sampled_from(SMALL_FIELDS))
    spec = gf.field_make(p, k)
    x = gf.element(spec, data.draw(st.integers(0, spec.order - 1)))
    y = gf.element(spec, data.draw(st.integers(0, spec.order - 1)))
    acc = term = x
    for _ in range(k - 1):
        term = gf.frobenius(term)
        acc = acc + term
    assert acc.coeffs[1:] == (0,) * (k - 1)
    assert gf.field_trace(x) == acc.coeffs[0]
    # the trace form evaluates tr(x y) from coefficient vectors
    form = int(np.array(x.coeffs) @ gf.trace_form(spec) @ np.array(y.coeffs))
    assert form % p == gf.field_trace(x * y)


def test_trace_of_one_in_four_element_field():
    assert gf.field_trace(gf.one(gf.field_make(2, 2))) == 0


def test_frobenius_closure_exhaustive():
    for p, k in [(2, 3), (3, 2), (2, 4), (5, 2), (2, 9), (3, 5)]:
        spec = gf.field_make(p, k)
        if spec.order > 512:
            continue
        q = spec.order
        for x in gf.elements(spec):
            assert x ** q == x
            if x:
                assert x ** (q - 1) == gf.one(spec)


def test_dual_basis_goldens():
    spec = gf8()
    a = gf.element(spec, 2)
    dual = gf.dual_basis([gf.one(spec), a, a * a])
    assert dual == [gf.one(spec), a * a, a]
    self_dual = [a ** 3, a ** 5, a ** 6]
    assert gf.dual_basis(self_dual) == self_dual


def test_dual_basis_defining_property_and_involution():
    for p, k in [(2, 3), (3, 2), (5, 2)]:
        spec = gf.field_make(p, k)
        basis = [gf.element(spec, [0] * d + [1]) for d in range(k)]
        dual = gf.dual_basis(basis)
        for i, e in enumerate(basis):
            for j, f in enumerate(dual):
                assert gf.field_trace(e * f) == (1 if i == j else 0)
        assert gf.dual_basis(dual) == basis


def test_dual_basis_k1_trivial():
    spec = gf.field_make(5, 1)
    assert gf.dual_basis([gf.one(spec)]) == [gf.one(spec)]


def test_dual_basis_rejects_dependent_input():
    spec = gf8()
    a = gf.element(spec, 2)
    with pytest.raises(ValueError, match="not a basis"):
        gf.dual_basis([a, a, a * a])


def test_primitive_element():
    spec = gf8()
    g = gf.primitive_element(spec)
    assert g == gf.element(spec, 2)
    assert gf.multiplicative_order(g) == 7
    assert gf.primitive_element(gf.field_make(2, 1)) == gf.one(gf.field_make(2, 1))
    g9 = gf.primitive_element(gf.field_make(3, 2))
    assert gf.multiplicative_order(g9) == 8


def test_element_enumeration_order():
    spec = gf.field_make(3, 2)
    els = gf.elements(spec)
    assert [x.index for x in els] == list(range(9))
    assert els[3].coeffs == (0, 1)   # index p is the generator a
    assert els[4].coeffs == (1, 1)


def test_prime_power_helper():
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(9) == (3, 2)
    assert gf.prime_power(7) == (7, 1)
    assert gf.prime_power(6) is None
    assert gf.prime_power(12) is None
    assert gf.prime_power(1) is None
