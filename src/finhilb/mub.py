"""Mutually unbiased bases: prime-dimension constructions, prime-power
constructions from abelian subgroups of displacement operators, unitary
operator bases built from complete sets, and the dimension-4 landscape
of maximal abelian two-qubit subgroups.

Bases are (n, n) complex arrays whose *columns* are the basis vectors.
"""

import itertools
import math

import numpy as np

from . import combinat, gf, sic, weyl
from .tol import TOL_MATRIX, TOL_OVERLAP


def family_deviations(bases) -> dict:
    """Orthonormality and cross-overlap deviations of a basis family.

    Args:
        bases: sequence of (n, n) arrays, columns holding the vectors.

    Returns:
        dict with ``n``, ``bases``, ``orthonormality`` (per member,
        max |B^dag B - 1|) and ``max_deviation`` (max over cross pairs of
        | |<e|f>|^2 - 1/n |; 0 for a single basis).  Any non-finite entry
        makes every deviation NaN, so a test written ``dev <= tol`` fails.

    Raises:
        ValueError: on an empty family or a member of the wrong shape.
    """
    mats = [np.asarray(b, dtype=complex) for b in bases]
    if not mats:
        raise ValueError("empty basis family")
    n = mats[0].shape[0]
    for i, b in enumerate(mats):
        if b.shape != (n, n):
            raise ValueError("basis %d has mismatched dimension" % i)
    stack = np.stack(mats)
    out = {"n": n, "bases": len(mats)}
    if not np.isfinite(stack).all():
        out.update(orthonormality=[math.nan] * len(mats), max_deviation=math.nan)
        return out
    # `block` members at a time, so that a product holds O(block n^2)
    # entries; any n <= 32 is one block
    block = max(1, 33 * 32 * 32 // (n * n))
    out["orthonormality"] = np.concatenate([np.abs(
        stack[j:j + block].conj().transpose(0, 2, 1) @ stack[j:j + block]
        - np.eye(n)).max(axis=(1, 2)) for j in range(0, len(mats), block)]
    ).tolist()
    # member i against the later members; np.max keeps a NaN that
    # Python's max would drop
    dev = [np.abs(np.abs(stack[i].conj().T @ stack[j:j + block]) ** 2
                  - 1.0 / n).max()
           for i in range(len(mats) - 1)
           for j in range(i + 1, len(mats), block)]
    out["max_deviation"] = float(np.max(dev)) if dev else 0.0
    return out


def unbiasedness_check(bases, tol: float = TOL_OVERLAP) -> dict:
    """Check that a family of orthonormal bases is mutually unbiased.

    Args:
        bases: sequence of (n, n) arrays, columns holding the vectors.
        tol: largest allowed deviation of cross overlaps squared from 1/n.

    Returns:
        dict with ``max_deviation`` (max over cross pairs of
        | |<e|f>|^2 - 1/n |, NaN for non-finite input) and ``pass``.

    Raises:
        ValueError: if some member is not an orthonormal basis, naming it.
        RuntimeError: if more than n + 1 bases pass, which no dimension n
            admits (tol is too loose).
    """
    rep = family_deviations(bases)
    for i, orth in enumerate(rep.pop("orthonormality")):
        # NaN here comes from non-finite input and fails `pass` below
        if orth > TOL_MATRIX:
            raise ValueError("basis %d is not orthonormal" % i)
    rep["pass"] = bool(rep["max_deviation"] <= tol)
    if rep["pass"] and rep["bases"] > rep["n"] + 1:
        raise RuntimeError("%d bases passed in dimension %d, more than n + 1"
                           % (rep["bases"], rep["n"]))
    return rep


def ivanovic_mubs(p: int):
    """Complete set of p + 1 mutually unbiased bases for odd prime p.

    Basis 0 is computational, bases x = 1..p-1 have components
    omega^((r-a)^2 / (2x)) / sqrt(p) with the inverse taken mod p, and
    the last basis is the Fourier basis.  Column a of basis x is an
    eigenvector of the displacement D_{x,1} with eigenvalue omega^a
    (D_{0,1} for the computational basis, D_{p-1,0} for the Fourier one).
    """
    if not gf.is_prime(p):
        raise ValueError("p must be prime")
    if p == 2:
        raise ValueError("p must be odd (the exponent contains 1/2)")
    if p > 31:
        raise ValueError("p too large")
    pows = np.exp(2j * np.pi * np.arange(p) / p)
    idx = np.arange(p)
    diff2 = np.subtract.outer(idx, idx) ** 2
    bases = [np.eye(p, dtype=complex)]
    for x in range(1, p):
        inv2x = pow(2 * x, p - 2, p)
        bases.append(pows[(diff2 * inv2x) % p] / np.sqrt(p))
    bases.append(combinat.fourier_matrix(p))

    # eigenvector property fixes the construction; check it
    gens = [weyl.displacement(p, 0, 1)]
    gens += [weyl.displacement(p, x, 1) for x in range(1, p)]
    gens.append(weyl.displacement(p, p - 1, 0))
    for b, d in zip(bases, gens):
        res = np.abs(d @ b - b * pows[None, :]).max()
        if not res <= TOL_MATRIX:
            raise RuntimeError("eigenvector property violated: %g" % res)
    return bases


def qubit_mubs():
    """The three qubit bases: computational plus the two conjugate ones
    (eigenbases of Z, X and Y; the six columns form an octahedron on the
    Bloch sphere)."""
    s = 1 / np.sqrt(2)
    return [np.eye(2, dtype=complex),
            np.array([[s, s], [s, -s]], dtype=complex),
            np.array([[s, s], [1j * s, -1j * s]], dtype=complex)]


def canonicalize_basis(basis) -> np.ndarray:
    """Fix per-vector phases (first component above 1e-8 made positive
    real) and sort columns lexicographically, so bases that agree up to
    these freedoms compare equal."""
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


def _stabilizer_basis(rows, vals, p):
    """Joint eigenbasis of commuting displacements G_1..G_k, in monomial
    form G_i[rows[i, x], x] = vals[i, x], generating an abelian group of
    order p^k, the dimension.  With each G_i phased so that G_i^p = I,
    column a is the largest-diagonal column, normalized, of the rank-1
    projector P_a = p^-k sum_b omega^(-a.b) prod G_i^(b_i), with
    eigenvalue omega^(a_i) under G_i.  Raises RuntimeError unless every
    G_i^p is I and every column an eigenvector of every G_i."""
    k, n = rows.shape
    x = np.arange(n)
    # G_i^j = G_i^(j-1) G_i for j = 0..p, then divided by the j-th power of
    # a p-th root of G_i^p, a scalar for a displacement: its entry (0, 0)
    r, v = [np.broadcast_to(x, (k, n))], [np.ones((k, n), complex)]
    for _ in range(p):
        r.append(np.take_along_axis(r[-1], rows, 1))
        v.append(np.take_along_axis(v[-1], rows, 1) * vals)
    r, v = np.array(r), np.array(v)
    roots = [c ** (1.0 / p) for c in np.where(r[p, :, 0] == 0, v[p, :, 0], 0)]
    v /= np.array(roots)[:, None] ** np.arange(p + 1)[:, None, None]
    prod_r, prod_v = x[None], np.ones((1, n), complex)
    for i in range(k):  # b over Z_p^k in lexicographic order
        prod_r, prod_v = (prod_r[:, r[:p, i]].reshape(-1, n),
                          (prod_v[:, r[:p, i]] * v[:p, i]).reshape(-1, n))
    labels = np.array(list(itertools.product(range(p), repeat=k)))
    omega = gf.roots_of_unity(p)
    chars = omega[(-labels @ labels.T) % p]
    # q P_a has diagonal chars @ where(rows == x, vals, 0) and column j
    # sum_b chars[a, b] vals_b[j] |rows_b[j]>; the scale q drops out
    cols = np.argmax((chars @ np.where(prod_r == x, prod_v, 0)).real, axis=1)
    vecs = np.zeros((n, len(labels)), complex)
    np.add.at(vecs, (prod_r[:, cols], np.arange(len(labels))),
              chars.T * prod_v[:, cols])
    vecs /= np.linalg.norm(vecs, axis=0)
    # |G^p - I|, inf where G^p moves a row, and |G v - lambda v| at rows[x]
    dev = np.max([np.where(r[p] == x, np.abs(v[p] - 1), np.inf).max(),
                  np.abs(v[1, :, :, None] * vecs - vecs[r[1]]
                         * omega[labels.T][:, None, :]).max()])
    if not dev <= TOL_MATRIX:
        raise RuntimeError("generators have no joint eigenbasis (residual "
                           "%g)" % dev)
    return vecs


def subgroup_eigenbases(p: int, k: int):
    """Complete MUB set in dimension p^k from the eigenbases of the
    p^k + 1 maximal abelian subgroups of field displacements.

    One subgroup per line through the origin of the field phase space:
    direction (0, 1) first, then (1, e) for e running over the field in
    index order, generated by the k displacements D(a^i * direction)
    (element p^i is a^i).  Bases are canonicalized (phase + column order).
    """
    if not gf.is_prime(p):
        raise ValueError("p must be prime")
    q = p ** k
    if q > 128:
        raise ValueError("field too large")
    spec = gf.field_make(p, k)
    ts = p ** np.arange(k)[:, None]
    directions = [(0, 1)] + [(1, e) for e in range(q)]
    return [canonicalize_basis(_stabilizer_basis(*weyl._field_form(
        spec, *gf.mul(spec, ts, direction).T), p))
        for direction in directions]


def bbrv_flower(bases):
    """Turn a complete MUB set into a partitioned unitary operator basis.

    For each basis b returns the petal of n commuting unitaries
    U_r = sum_i omega^(r i) |b_i><b_i|, r = 0..n-1 (U_0 is the identity,
    shared by all petals).  Verifies that the identity plus the n^2 - 1
    nonidentity elements form an orthogonal unitary operator basis:
    Tr(U^dag V) = n delta.
    """
    mats = [np.asarray(b, dtype=complex) for b in bases]
    n = mats[0].shape[0]
    if len(mats) != n + 1:
        raise ValueError("expected a complete set of %d bases, got %d"
                         % (n + 1, len(mats)))
    w = np.exp(2j * np.pi * np.arange(n) / n)
    petals = []
    for b in mats:
        petals.append([b @ np.diag(w ** r) @ b.conj().T for r in range(n)])
    ops = [np.eye(n, dtype=complex)]
    for petal in petals:
        ops.extend(petal[1:])
    vecs = np.array([u.reshape(n * n) / np.sqrt(n) for u in ops])
    gram = vecs.conj() @ vecs.T
    res = float(np.abs(gram - np.eye(n * n)).max())
    if not res <= 1e-8:
        raise ValueError("petal union is not a unitary operator basis "
                         "(residual %g)" % res)
    return petals


# -- dimension 4: the fifteen maximal abelian two-qubit subgroups --------

_PAULI = {
    "1": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_XZ_BITS = {"1": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

# conventional numbering: petals 1-6 are the rows and columns of the
# magic square of observables, 7-15 the remaining subgroups
_PETAL_TABLE = [
    ("1Z", "Z1", "ZZ"), ("X1", "1X", "XX"), ("XZ", "ZX", "YY"),
    ("1Z", "X1", "XZ"), ("Z1", "1X", "ZX"), ("ZZ", "XX", "YY"),
    ("1Z", "Y1", "YZ"), ("Z1", "1Y", "ZY"), ("X1", "1Y", "XY"),
    ("1X", "Y1", "YX"), ("1Y", "Y1", "YY"), ("XY", "YX", "ZZ"),
    ("XZ", "YX", "ZY"), ("XY", "YZ", "ZX"), ("XX", "YZ", "ZY"),
]


def pauli_word_matrix(word: str) -> np.ndarray:
    """Tensor product of single-qubit operators named by the word, e.g.
    "XZ" -> X (x) Z."""
    m = _PAULI[word[0]]
    for ch in word[1:]:
        m = np.kron(m, _PAULI[ch])
    return m


def mermin_landscape() -> dict:
    """Enumerate the maximal abelian subgroups ("petals") of the
    two-qubit Pauli group modulo phases and every partition of the 15
    nonidentity words into five disjoint petals ("flowers").

    Returns a dict with:
        petals: 15 petals as tuples of two-letter words, in the
            conventional order (petals 1-6 are the magic-square ones);
        flowers: the 6 partitions, each a sorted tuple of five 1-based
            petal indices;
        eigenbases: one canonical (4, 4) joint eigenbasis per petal;
        mub_sets: per flower, the five eigenbases (a complete MUB set);
        stabilizer_states: (60, 4) array of the distinct eigenvectors.
    """
    words = ["".join(t) for t in itertools.product("1XYZ", repeat=2)
             if t != ("1", "1")]
    # each petal is the nonzero part of a maximal isotropic subspace of
    # F_2^4, the vector (x1, z1, x2, z2) naming one word
    letter = {bits: ch for ch, bits in _XZ_BITS.items()}
    found = {frozenset(letter[v[:2]] + letter[v[2:]] for v in space if any(v))
             for space in _maximal_isotropic_subspaces(2, 2)}
    if found != {frozenset(t) for t in _PETAL_TABLE}:
        raise RuntimeError("subgroup enumeration disagrees with the "
                           "conventional table")
    petals = list(_PETAL_TABLE)

    flowers = []
    universe = frozenset(words)
    sets = [frozenset(t) for t in petals]

    def extend(chosen, covered):
        if covered == universe:
            flowers.append(tuple(i + 1 for i in chosen))
            return
        start = chosen[-1] + 1 if chosen else 0
        for i in range(start, 15):
            if sets[i] & covered:
                continue
            extend(chosen + [i], covered | sets[i])

    extend([], frozenset())
    flowers.sort()
    if len(flowers) != 6:
        raise RuntimeError("expected 6 flowers, got %d" % len(flowers))

    # the first two words of a petal generate its group, read off as forms
    rows, vals, off = weyl._dense_form(np.array(
        [pauli_word_matrix(w) for petal in petals for w in petal[:2]]))
    if not off <= TOL_MATRIX:
        raise RuntimeError("petal words are not monomial")
    eigenbases = [canonicalize_basis(_stabilizer_basis(r, v, 2)) for r, v
                  in zip(rows.reshape(-1, 2, 4), vals.reshape(-1, 2, 4))]

    mub_sets = []
    for flower in flowers:
        family = [eigenbases[i - 1] for i in flower]
        report = unbiasedness_check(family)
        if not report["pass"]:
            raise RuntimeError("flower %s fails unbiasedness: %g"
                               % (flower, report["max_deviation"]))
        mub_sets.append(family)

    states = {}
    for b in eigenbases:
        for j in range(4):
            key = tuple(x for c in b[:, j]
                        for x in (round(c.real, 6) + 0.0,
                                  round(c.imag, 6) + 0.0))
            states.setdefault(key, b[:, j])
    stabilizer_states = np.array([states[k] for k in sorted(states)])

    return {"petals": petals, "flowers": flowers, "eigenbases": eigenbases,
            "mub_sets": mub_sets, "stabilizer_states": stabilizer_states}


def stabilizer_count(p: int, k: int) -> int:
    """Number of stabilizer states in dimension p^k:
    p^k * prod_{i=1..k} (p^i + 1)."""
    if not gf.is_prime(p):
        raise ValueError("p must be prime")
    if p ** k > 2 ** 12:
        raise ValueError("dimension too large")
    count = p ** k
    for i in range(1, k + 1):
        count *= p ** i + 1
    return count


def _maximal_isotropic_subspaces(p: int, k: int) -> set:
    """Brute-force enumeration of the maximal totally isotropic subspaces
    of the symplectic space F_p^{2k}, each a frozenset of vectors
    (x1, z1, ..., xk, zk); the form is weyl.symplectic_exponent summed
    over the k coordinate pairs."""
    vectors = list(itertools.product(range(p), repeat=2 * k))
    x = np.array(vectors).T
    form = sum(weyl.symplectic_exponent(x[i:i + 2, :, None],
                                        x[i:i + 2, None, :])
               for i in range(0, 2 * k, 2))
    # orthogonal[a, b]: vectors a and b have zero form
    orthogonal = (form % p == 0).tolist()

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    zero = vectors[0]
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

    extend([], {zero})
    return found


def maximal_isotropic_count(p: int, k: int) -> int:
    """Number of maximal totally isotropic subspaces of the symplectic
    space F_p^{2k} (each is the phase-space footprint of one stabilizer
    basis), by brute force."""
    if p ** k > 8:
        raise ValueError("too large for brute force")
    return len(_maximal_isotropic_subspaces(p, k))


# -- exploratory search for vectors unbiased to two bases in dimension 6 --

def _unbiased6_objective():
    """(value, value_grad, residual_jacobian) of sum_k d_k^2 with residuals
    d = |R v|^2 - 1/6 over the 12 rows R of I and F6^dag, in the form
    sic.multistart takes."""
    rows = np.vstack([np.eye(6, dtype=complex),
                      combinat.fourier_matrix(6).conj().T])

    def residuals(v):
        amps = rows @ v
        return amps, np.abs(amps) ** 2 - 1.0 / 6.0

    def value(v):
        d = residuals(v)[1]
        return float(d @ d)

    def value_grad(v):
        amps, d = residuals(v)
        return float(d @ d), 4.0 * (rows.conj().T @ (d * amps))

    def residual_jacobian(v):
        amps, d = residuals(v)
        da = amps.conj()[:, None] * rows
        return d, np.hstack([2.0 * da.real, -2.0 * da.imag])

    return value, value_grad, residual_jacobian


def search_unbiased6(restarts: int = 24, seed: int = 0,
                     tol: float = 1e-18) -> dict:
    """Local search for unit vectors in dimension 6 unbiased to both the
    computational and the Fourier basis, by sic.multistart.  Reports only
    what it finds: the number of distinct solutions below tol among the
    restarts.
    """
    runs, stats = sic.multistart(6, restarts, seed, _unbiased6_objective(),
                                 tol)
    # at a solution every |v_i| = 1/sqrt(6), so v[0] fixes the phase
    hits = sorted((v * (v[0].conjugate() / abs(v[0])) for v, f in runs
                   if f < tol), key=lambda v: tuple(
        x for c in v for x in (round(c.real, 6), round(c.imag, 6))))
    vectors = []
    for v in hits:
        if all(np.abs(v - u).max() > 1e-6 for u in vectors):
            vectors.append(v)
    return {"count": len(vectors),
            "vectors": np.array(vectors),
            "min_value": min(stats["final_values"]),
            "restarts": restarts,
            "stats": stats}
