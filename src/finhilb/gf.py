"""Exact arithmetic in finite fields GF(p^K) on enumeration indices.

A field element is its enumeration index, a plain ``int`` or an integer
array.  Index ``sum_i c_i * p**i`` stands for ``c0 + c1*a + ... +
c_{K-1}*a^{K-1}`` where ``a`` is a root of the defining monic irreducible
polynomial, so indices ``0 .. p-1`` are the prime subfield and index ``p``
is the generator ``a`` itself.  Hilbert-space basis labels follow this
order everywhere in the package.

The arithmetic functions take the field first and broadcast over integer
arrays like numpy ufuncs; a scalar argument gives a numpy integer.  They
work on the coefficient rows of :func:`digit_table`: addition is digit-wise
mod p, and multiplication by y is the matrix sum_j y_j C^j for the
companion matrix C of the modulus.
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


def _poly_rem(a, b, p):
    """Coefficients of a mod the monic b over Z_p, both constant first."""
    rem = list(a)
    d = len(b) - 1
    for shift in range(len(rem) - 1 - d, -1, -1):
        factor = rem[shift + d] % p
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
    return rem[:d]


def _is_irreducible(poly, p):
    # trial division by every monic polynomial of degree 1 .. deg//2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(poly, list(tail) + [1], p)):
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


def element(spec: FieldSpec, coeffs) -> int:
    """Index of c0 + c1*a + ... from at most k coefficients, constant
    first, each reduced mod p."""
    coeffs = list(coeffs)
    if len(coeffs) > spec.k:
        raise ValueError("more than k coefficients")
    return sum(c % spec.p * spec.p ** i for i, c in enumerate(coeffs))


def _digits(spec, x):
    """Coefficient rows, shape x.shape + (k,), of the index array x."""
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= spec.order):
        raise ValueError("field element index out of range")
    return digit_table(spec)[x]


def _index(spec, coeffs):
    """Indices of coefficient rows, each coefficient reduced mod p."""
    return (coeffs % spec.p) @ spec.p ** np.arange(spec.k, dtype=np.int64)


def add(spec: FieldSpec, x, y):
    """x + y, digit by digit mod p."""
    return _index(spec, _digits(spec, x) + _digits(spec, y))


def neg(spec: FieldSpec, x):
    """-x, digit by digit mod p."""
    return _index(spec, -_digits(spec, x))


def mul(spec: FieldSpec, x, y):
    """x*y: the coefficients of x mapped by sum_j y_j C^j."""
    cx, cy = _digits(spec, x), _digits(spec, y)
    powers = _companion_powers(spec)
    acc = 0
    for j in range(spec.k):
        acc = acc + cy[..., j, None] * ((cx @ powers[j].T) % spec.p)
    return _index(spec, acc)


def power(spec: FieldSpec, x, e):
    """x**e for integer exponents e >= 0, by repeated squaring."""
    e = np.asarray(e)
    if np.any(e < 0):
        raise ValueError("negative exponent")
    out = np.ones(np.broadcast_shapes(np.shape(x), e.shape), dtype=np.int64)
    while np.any(e):
        out = mul(spec, out, np.where(e & 1, x, 1))
        x = mul(spec, x, x)
        e = e >> 1
    return out[()]


def inverse(spec: FieldSpec, x):
    """1/x = x**(q-2); raises ZeroDivisionError on zero."""
    if np.any(np.asarray(x) == 0):
        raise ZeroDivisionError("division by zero")
    return power(spec, x, spec.order - 2)


def field_trace(spec: FieldSpec, x):
    """tr x = x + x^p + ... + x^(p^(k-1)), an integer residue mod p.

    The trace is Z_p-linear, so it is evaluated as sum_i c_i tr(a^i) over
    the coefficients c_i of x, with tr(a^i) read from :func:`trace_form`.
    """
    return (_digits(spec, x) @ trace_form(spec)[:, 0]) % spec.p


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
    k = spec.k
    traces = np.trace(_companion_powers(spec), axis1=1, axis2=2) % spec.p
    out = traces[np.add.outer(np.arange(k), np.arange(k))]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _companion_powers(spec: FieldSpec) -> np.ndarray:
    """(2k-1, k, k) integer array of C^m mod p for m = 0 .. 2k-2, with C
    the companion matrix of the modulus, so C^m maps the coefficients of x
    to those of x a^m.  Treat as read-only."""
    p, k = spec.p, spec.k
    comp = np.zeros((k, k), dtype=np.int64)
    comp[np.arange(1, k), np.arange(k - 1)] = 1
    comp[:, k - 1] = [-c % p for c in spec.poly[:k]]
    out = [np.eye(k, dtype=np.int64)]
    for _ in range(2 * k - 2):
        out.append((comp @ out[-1]) % p)
    out = np.array(out)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def roots_of_unity(p: int) -> np.ndarray:
    """omega**j = exp(2*pi*i*j/p) for j = 0 .. p-1.  Treat as read-only."""
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


def multiplicative_order(spec: FieldSpec, x):
    """Least n >= 1 with x**n = 1, for nonzero x: the least divisor n of
    q - 1 with x**n = 1."""
    x = np.asarray(x)
    if np.any(x == 0):
        raise ValueError("zero has no multiplicative order")
    q1 = spec.order - 1
    order = np.zeros(x.shape, dtype=np.int64)
    for n in range(1, q1 + 1):
        if q1 % n == 0:
            order = np.where((order == 0) & (power(spec, x, n) == 1), n, order)
    return order[()]


def primitive_element(spec: FieldSpec) -> int:
    """The first element in canonical enumeration order whose
    multiplicative order is p^k - 1."""
    target = spec.order - 1
    for x in range(1, spec.order):
        if multiplicative_order(spec, x) == target:
            return x
    raise RuntimeError("no primitive element found")  # unreachable


def dual_basis(spec: FieldSpec, basis) -> list:
    """Given a Z_p-basis (e_1..e_k) of GF(p^k), return the dual basis
    with tr(e_i * dual_j) = delta_ij."""
    p, k = spec.p, spec.k
    if len(basis) != k:
        raise ValueError("not a basis")
    # codes[x] has base-p digits tr(x e_i) = c_x . G . c_(e_i); the map
    # x -> codes[x] is one-to-one exactly when the e_i are a basis
    form = trace_form(spec) @ _digits(spec, basis).T
    codes = ((digit_table(spec) @ form) % p) @ p ** np.arange(k)
    if np.unique(codes).size != spec.order:
        raise ValueError("not a basis")
    return [int(np.flatnonzero(codes == p ** j)[0]) for j in range(k)]
