"""Exact arithmetic in residue rings and finite fields GF(p^K).

Field elements are coefficient vectors over Z_p with the constant term
first: ``(c0, c1, ..., c_{K-1})`` stands for ``c0 + c1*a + ... +
c_{K-1}*a^{K-1}`` where ``a`` is a root of the defining monic irreducible
polynomial.  The canonical enumeration index of an element is
``sum_i c_i * p**i``, so indices ``0 .. p-1`` are the prime subfield and
index ``p`` is the generator ``a`` itself.  Hilbert-space basis labels
follow this order everywhere in the package.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

MAX_FIELD_SIZE = 2 ** 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int):
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)  # q itself prime
        if q % p:
            continue
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return None


# -- dense polynomial helpers over Z_p; coefficient lists, constant first --

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * max(0, len(rem) - len(b) + 1)
    while len(_trim(rem)) >= len(b):
        rem = _trim(rem)
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
    return _trim(quot), _trim(rem)


def _poly_mulmod(a, b, mod, p):
    return _poly_divmod(_poly_mul(a, b, p), mod, p)[1]


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_divmod(a, mod, p)[1]
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _is_irreducible(poly, p):
    # trial division by every monic polynomial of degree 1 .. deg//2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_divmod(poly, divisor, p)[1]:
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A finite field GF(p^k) with a fixed monic irreducible modulus.

    ``poly`` has length k+1, constant term first, leading coefficient 1.
    """
    p: int
    k: int
    poly: tuple

    @property
    def order(self) -> int:
        return self.p ** self.k


def field_make(p: int, k: int) -> FieldSpec:
    """Build GF(p^k) with the lexicographically smallest monic irreducible
    modulus (candidates ordered by their descending-degree coefficient
    tuple, so the choice is deterministic)."""
    if not is_prime(p):
        raise ValueError("characteristic not prime")
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    if p ** k > MAX_FIELD_SIZE:
        raise ValueError("field order exceeds the desk-scale guard 2**20")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for high_to_low in itertools.product(range(p), repeat=k):
        poly = list(reversed(high_to_low)) + [1]
        if _is_irreducible(poly, p):
            return FieldSpec(p, k, tuple(poly))
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FieldElement:
    """An element of GF(p^k), stored as a length-k coefficient tuple."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > spec.k:
            coeffs = _poly_divmod(coeffs, list(spec.poly), spec.p)[1]
        coeffs = [c % spec.p for c in coeffs]
        coeffs += [0] * (spec.k - len(coeffs))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if other.spec != self.spec:
            raise ValueError("mixed field specs")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, _poly_add(self.coeffs, other.coeffs, self.spec.p))

    def __neg__(self):
        return FieldElement(self.spec, [-c % self.spec.p for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElement(self.spec, [c * other % self.spec.p for c in self.coeffs])
        other = self._check(other)
        prod = _poly_mulmod(list(self.coeffs), list(other.coeffs), list(self.spec.poly),
                            self.spec.p)
        return FieldElement(self.spec, prod)

    __rmul__ = __mul__

    def inv(self):
        if not any(self.coeffs):
            raise ZeroDivisionError("division by zero")
        return self ** (self.spec.order - 2)

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = _poly_powmod(list(self.coeffs), e, list(self.spec.poly), self.spec.p)
        return FieldElement(self.spec, out)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"FieldElement({self.coeffs}, GF({self.spec.p}^{self.spec.k}))"

    @property
    def index(self) -> int:
        return sum(c * self.spec.p ** i for i, c in enumerate(self.coeffs))


def element(spec: FieldSpec, value) -> FieldElement:
    """Construct an element from a coefficient sequence or an enumeration
    index (base-p digits of the index are the coefficients)."""
    if isinstance(value, int):
        if not 0 <= value < spec.order:
            raise ValueError("index out of range")
        digits = []
        for _ in range(spec.k):
            digits.append(value % spec.p)
            value //= spec.p
        return FieldElement(spec, digits)
    return FieldElement(spec, value)


def zero(spec: FieldSpec) -> FieldElement:
    return element(spec, 0)


def one(spec: FieldSpec) -> FieldElement:
    return element(spec, [1])


def elements(spec: FieldSpec):
    """All field elements in canonical enumeration order."""
    return [element(spec, i) for i in range(spec.order)]


def field_arith(a: FieldElement, b, op: str) -> FieldElement:
    """Dispatch arithmetic by name: op in {add, mul, inv, pow}.

    ``inv`` ignores b; ``pow`` takes an integer exponent for b.
    """
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inv()
    if op == "pow":
        return a ** int(b)
    raise ValueError(f"unknown op {op!r}")


def frobenius(x: FieldElement) -> FieldElement:
    return x ** x.spec.p


def field_trace(x: FieldElement) -> int:
    """tr x = x + x^p + ... + x^(p^(k-1)), an integer residue mod p.

    The trace is Z_p-linear, so it is evaluated as sum_i c_i tr(a^i) over
    the coefficients c_i of x, with tr(a^i) read from :func:`trace_form`.
    """
    return int(np.dot(trace_form(x.spec)[:, 0], x.coeffs)) % x.spec.p


# -- integer tables, built on first use and cached per field -----------------
# Every table is O(q*k) or smaller: q x q addition or multiplication tables
# would not fit at the 2**20 order guard of field_make.

@functools.lru_cache(maxsize=32)
def digit_table(spec: FieldSpec) -> np.ndarray:
    """(q, k) integer array; row i holds the coefficients of element i,
    constant term first (the base-p digits of i).  Treat as read-only."""
    idx = np.arange(spec.order, dtype=np.int64)
    out = (idx[:, None] // spec.p ** np.arange(spec.k, dtype=np.int64)) % spec.p
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def trace_form(spec: FieldSpec) -> np.ndarray:
    """(k, k) integer matrix G[i, j] = tr(a^(i+j)), so tr(x y) = cx . G . cy
    mod p for coefficient vectors cx, cy.  Treat as read-only.

    tr(a^m) is the matrix trace of multiplication by a^m, i.e. of C^m for
    the companion matrix C of the modulus.
    """
    p, k = spec.p, spec.k
    comp = np.zeros((k, k), dtype=np.int64)
    comp[np.arange(1, k), np.arange(k - 1)] = 1
    comp[:, k - 1] = [-c % p for c in spec.poly[:k]]
    traces = []
    power = np.eye(k, dtype=np.int64)
    for _ in range(2 * k - 1):
        traces.append(int(np.trace(power)) % p)
        power = (comp @ power) % p
    out = np.array(traces, dtype=np.int64)[np.add.outer(np.arange(k), np.arange(k))]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def roots_of_unity(p: int) -> np.ndarray:
    """omega**j = exp(2*pi*i*j/p) for j = 0 .. p-1.  Treat as read-only."""
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


def multiplicative_order(x: FieldElement) -> int:
    if not x:
        raise ValueError("zero has no multiplicative order")
    n = x.spec.order - 1
    order = n
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            while order % f == 0 and x ** (order // f) == one(x.spec):
                order //= f
        f += 1
    if m > 1 and order % m == 0 and x ** (order // m) == one(x.spec):
        order //= m
    return order


def primitive_element(spec: FieldSpec) -> FieldElement:
    """The first element in canonical enumeration order whose
    multiplicative order is p^k - 1."""
    target = spec.order - 1
    for x in elements(spec)[1:]:
        if multiplicative_order(x) == target:
            return x
    raise RuntimeError("no primitive element found")  # unreachable


def dual_basis(basis) -> list:
    """Given a Z_p-basis (e_1..e_k) of GF(p^k), return the dual basis
    with tr(e_i * dual_j) = delta_ij."""
    basis = list(basis)
    spec = basis[0].spec
    p, k = spec.p, spec.k
    if len(basis) != k:
        raise ValueError("not a basis")
    powers = [element(spec, [0] * d + [1]) for d in range(k)]
    # M[i][c] = tr(e_i * a^c); solve M * C^T = 1 mod p
    M = [[field_trace(e * powers[c]) for c in range(k)] for e in basis]
    aug = [row[:] + [1 if j == i else 0 for j in range(k)]
           for i, row in enumerate(M)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] % p), None)
        if pivot is None:
            raise ValueError("not a basis")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(v - factor * w) % p for v, w in zip(aug[r], aug[col])]
    # columns of the inverse give the dual elements in the a-power basis
    dual = []
    for j in range(k):
        acc = zero(spec)
        for c in range(k):
            acc = acc + aug[c][k + j] * powers[c]
        dual.append(acc)
    return dual
