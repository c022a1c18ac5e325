"""Mutually unbiased bases: complete sets in prime and prime-power
dimensions, each basis the joint eigenbasis of an abelian subgroup of
displacement operators, unitary operator bases built from complete sets,
and the dimension-4 landscape of maximal abelian two-qubit subgroups.

Bases are (n, n) complex arrays whose *columns* are the basis vectors.
"""

import itertools
import math

import numpy as np

from . import combinat, gf, sic, weyl
from .tol import TOL_MATRIX, TOL_OVERLAP


def _block(n: int) -> int:
    """Members per block of (n, n) arrays: a block holds O(33 32^2) entries."""
    return max(1, 33 * 32 * 32 // (n * n))


def _field(p: int, k: int):
    """GF(p^k) for a complete MUB set, of order at most 128."""
    if not gf.is_prime(p):
        raise ValueError("p must be prime")
    if p ** k > 128:
        raise ValueError("field too large")
    return gf.field_make(p, k)


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
    block = _block(n)
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


def invariants(bases) -> dict:
    """family_deviations folded in report order, keeping a NaN: the worst
    member's orthonormality and the max_deviation as unbiasedness."""
    devs = family_deviations(bases)
    return {"orthonormality": float(np.max(devs["orthonormality"])),
            "unbiasedness": devs["max_deviation"]}


def unbiasedness_check(bases, tol: float = TOL_OVERLAP) -> dict:
    """Check that a family of orthonormal bases is mutually unbiased.

    Args:
        bases: sequence of (n, n) arrays, columns holding the vectors.
        tol: largest allowed deviation of cross overlaps squared from 1/n.

    Returns:
        dict with ``max_deviation`` (max over cross pairs of
        | |<e|f>|^2 - 1/n |, NaN for non-finite input) and ``pass``.

    Raises:
        RuntimeError: if some member is not an orthonormal basis, naming
            it, or if more than n + 1 bases pass, which no dimension n
            admits (tol is too loose).
    """
    rep = family_deviations(bases)
    for i, orth in enumerate(rep.pop("orthonormality")):
        # NaN here comes from non-finite input and fails `pass` below
        if orth > TOL_MATRIX:
            raise RuntimeError("basis %d is not orthonormal" % i)
    rep["pass"] = bool(rep["max_deviation"] <= tol)
    if rep["pass"] and rep["bases"] > rep["n"] + 1:
        raise RuntimeError("%d bases passed in dimension %d, more than n + 1"
                           % (rep["bases"], rep["n"]))
    return rep


def _stabilizer_basis(rows, vals, p):
    """Joint eigenbases of L sets of commuting displacements G_1..G_k, in
    monomial form G_i[rows[l, i, x], x] = vals[l, i, x], each generating
    an abelian group of order p^k, the dimension n; returns (L, n, n).
    With each G_i phased so that G_i^p = I, column a of a basis is the
    largest-diagonal column, normalized, of the rank-1 projector
    P_a = p^-k sum_b omega^(-a.b) prod G_i^(b_i), with eigenvalue
    omega^(a_i) under G_i.  The sets run in blocks of _block(n).  Raises
    RuntimeError unless every G_i^p is I and every column an eigenvector
    of every G_i."""
    lines, k, n = rows.shape
    step = _block(n)
    if lines > step:
        return np.concatenate([_stabilizer_basis(rows[j:j + step],
                                                 vals[j:j + step], p)
                               for j in range(0, lines, step)])
    # one block as one direct sum: set l acts on the points ln..ln + n - 1
    x = np.arange(lines * n)
    rows = (rows + x[::n, None, None]).transpose(1, 0, 2).reshape(k, -1)
    vals = vals.transpose(1, 0, 2).reshape(k, -1)
    # G_i^j = G_i^(j-1) G_i for j = 0..p, then divided by the j-th power of
    # a p-th root of G_i^p, on each set a scalar: its entry (ln, ln)
    r, v = [np.broadcast_to(x, rows.shape)], [np.ones(rows.shape, complex)]
    for _ in range(p):
        r.append(np.take_along_axis(r[-1], rows, 1))
        v.append(np.take_along_axis(v[-1], rows, 1) * vals)
    r, v = np.array(r), np.array(v)
    roots = [c ** (1.0 / p) for c in
             np.where(r[p, :, ::n] == x[::n], v[p, :, ::n], 0).ravel()]
    v /= np.repeat(np.reshape(roots, (k, lines)), n, axis=1) ** np.arange(
        p + 1)[:, None, None]
    prod_r, prod_v = x[None], np.ones((1, x.size), complex)
    for i in range(k):  # b over Z_p^k in lexicographic order
        prod_r, prod_v = (prod_r[:, r[:p, i]].reshape(-1, x.size),
                          (prod_v[:, r[:p, i]] * v[:p, i]).reshape(-1, x.size))
    labels = np.array(list(itertools.product(range(p), repeat=k)))
    omega = gf.roots_of_unity(p)
    chars = omega[(-labels @ labels.T) % p]
    # q P_a has diagonal chars @ where(rows == x, vals, 0) and column j
    # sum_b chars[a, b] vals_b[j] |rows_b[j]>; the scale q drops out
    cols = x[::n] + np.argmax((chars @ np.where(prod_r == x, prod_v, 0))
                              .real.reshape(-1, lines, n), axis=2)
    vecs = np.zeros((x.size, len(labels)), complex)
    np.add.at(vecs, (prod_r[:, cols], np.arange(len(labels))[:, None]),
              chars.T[:, :, None] * prod_v[:, cols])
    out = vecs.reshape(lines, n, -1)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    # |G^p - I|, inf where G^p moves a row, and |G v - lambda v| at rows[x]
    dev = np.max([np.where(r[p] == x, np.abs(v[p] - 1), np.inf).max(),
                  np.abs(v[1, :, :, None] * vecs - vecs[r[1]]
                         * omega[labels.T][:, None, :]).max()])
    if not dev <= TOL_MATRIX:
        raise RuntimeError("generators have no joint eigenbasis (residual "
                           "%g)" % dev)
    return out


def directions(q: int):
    """The q + 1 directions of the lines through the origin of the GF(q)
    phase space, as pairs of field indices: (0, 1), then (x, 1) for
    x = 1..q-1, then (-1, 0).  Basis l of subgroup_eigenbases and pencil l
    of the wigner line geometry belong to direction l."""
    return [(x, 1) for x in range(q)] + [(gf.prime_power(q)[0] - 1, 0)]


def subgroup_eigenbases(p: int, k: int = 1) -> np.ndarray:
    """The complete set of q + 1 MUBs in dimension q = p^k, as one
    (q + 1, q, q) array whose entry l is basis l: the joint eigenbasis of
    the maximal abelian subgroup of field displacements on the line
    through the origin in direction d_l = directions(q)[l], generated by
    the k displacements D(a^i d_l) (element p^i is a^i).

    Column a of basis l has eigenvalue omega^(a_i) under the phased
    generator D(a^i d_l), where a = (a_0 ... a_(k-1)) in base p, a_0
    leading.  At k = 1 these are the eigenbases of D_{0,1} (computational),
    D_{x,1} for x = 1..p-1 and D_{-1,0} (Fourier), column a with
    eigenvalue omega^a; for odd p, column a of basis x is, up to one
    phase, omega^((r-a)^2 / (2x)) / sqrt(p) (Ivanovic).
    """
    spec = _field(p, k)
    q = p ** k
    # axes (line, generator, coordinate)
    u = gf.mul(spec, p ** np.arange(k)[:, None],
               np.array(directions(q))[:, None])
    rows, vals = weyl._field_form(spec, u[..., 0].ravel(), u[..., 1].ravel())
    return _stabilizer_basis(rows.reshape(q + 1, k, q),
                             vals.reshape(q + 1, k, q), p)


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
    w = gf.roots_of_unity(n)
    petals = []
    for b in mats:
        petals.append([b @ np.diag(w ** r) @ b.conj().T for r in range(n)])
    ops = [np.eye(n, dtype=complex)]
    for petal in petals:
        ops.extend(petal[1:])
    vecs = np.array([u.reshape(n * n) / np.sqrt(n) for u in ops])
    gram = vecs.conj() @ vecs.T
    res = float(np.abs(gram - np.eye(n * n)).max())
    if not res <= TOL_MATRIX:
        raise ValueError("petal union is not a unitary operator basis "
                         "(residual %g)" % res)
    return petals


# -- dimension 4: the fifteen maximal abelian two-qubit subgroups --------

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


def mermin_landscape() -> dict:
    """Enumerate the maximal abelian subgroups ("petals") of the
    two-qubit Pauli group modulo phases and every partition of the 15
    nonidentity words into five disjoint petals ("flowers").

    Returns a dict with:
        petals: 15 petals as tuples of two-letter words, in the
            conventional order (petals 1-6 are the magic-square ones);
        flowers: the 6 partitions, each a sorted tuple of five 1-based
            petal indices;
        eigenbases: (15, 4, 4), the joint eigenbasis of each petal, its
            columns labelled by _stabilizer_basis;
        mub_sets: per flower, the five eigenbases (a complete MUB set);
        stabilizer_states: (60, 4), the columns of the eigenbases petal
            by petal, each a distinct state.
    """
    # each petal is the nonzero part of a Lagrangian subspace of F_2^4, the
    # vector (x1, z1, x2, z2) naming one word
    letter = {bits: ch for ch, bits in _XZ_BITS.items()}
    found = {frozenset(letter[v[:2]] + letter[v[2:]] for v in space if any(v))
             for space in lagrangians(2, 2)}
    if found != {frozenset(t) for t in _PETAL_TABLE}:
        raise RuntimeError("subgroup enumeration disagrees with the "
                           "conventional table")
    petals = list(_PETAL_TABLE)

    # five petals of three words each partition the 15 words when they
    # cover all of them
    flowers = [tuple(i + 1 for i in chosen)
               for chosen in itertools.combinations(range(15), 5)
               if len(set().union(*(petals[i] for i in chosen))) == 15]
    if len(flowers) != 6:
        raise RuntimeError("expected 6 flowers, got %d" % len(flowers))

    # the first two words of a petal generate its group; letter i of a
    # word is D_{x, z} on qubit i, (x, z) its _XZ_BITS
    bits = np.array([[_XZ_BITS[ch] for ch in w]
                     for petal in petals for w in petal[:2]])
    rows, vals = weyl._tensor_form(2, bits[..., 0], bits[..., 1])
    eigenbases = _stabilizer_basis(rows.reshape(15, 2, 4),
                                   vals.reshape(15, 2, 4), 2)

    mub_sets = []
    for flower in flowers:
        family = [eigenbases[i - 1] for i in flower]
        report = unbiasedness_check(family)
        if not report["pass"]:
            raise RuntimeError("flower %s fails unbiasedness: %g"
                               % (flower, report["max_deviation"]))
        mub_sets.append(family)

    return {"petals": petals, "flowers": flowers, "eigenbases": eigenbases,
            "mub_sets": mub_sets, "stabilizer_states": np.concatenate(
                eigenbases.transpose(0, 2, 1))}


def stabilizer_overlap_deviation(states) -> float:
    """The largest distance of an off-diagonal |<a|b>|^2 of two-qubit
    stabilizer states, the rows of states, from the nearest of 0, 1/4 and
    1/2, or of a diagonal one from 1; NaN propagates."""
    gram = np.abs(np.asarray(states).conj() @ np.transpose(states)) ** 2
    dist = np.abs(gram[..., None] - np.array([0.0, 0.25, 0.5])).min(axis=-1)
    np.fill_diagonal(dist, np.abs(gram.diagonal() - 1))
    return float(np.max(dist))


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


def lagrangians(p: int, k: int) -> set:
    """The Lagrangian (maximal totally isotropic) subspaces of the
    symplectic space F_p^{2k}, p^k <= 8, each the phase-space footprint of
    one stabilizer basis and a frozenset of its p^k vectors (x1, z1, ...,
    xk, zk); the form is sum_i (z_i x'_i - x_i z'_i).  Each lies in one
    of 2^k charts: for a subset J of the pairs it is the row space of
    [I | S], S symmetric over F_p, with the pairs in J turned by (x, z) ->
    (-z, x).  There are prod_{i=1..k} (p^i + 1) of them."""
    if not gf.is_prime(p):
        raise ValueError("p must be prime")
    if p ** k > 8:
        raise ValueError("p^k too large for the enumeration")
    c = np.array(list(itertools.product(range(p), repeat=k)))
    iu = np.triu_indices(k)
    s = np.zeros((p ** len(iu[0]), k, k), int)
    s[:, iu[0], iu[1]] = s[:, iu[1], iu[0]] = list(
        itertools.product(range(p), repeat=len(iu[0])))
    # axes (S, combination c, pair): the vector c [I | S]
    x, z = np.broadcast_arrays(c, c @ s % p)
    turn = np.array(list(itertools.product((0, 1), repeat=k)), bool)
    # axes (J, S, c, pair, (x, z))
    v = np.stack([np.where(turn[:, None, None], -z % p, x),
                  np.where(turn[:, None, None], x, z)], -1)
    return {frozenset(map(tuple, span))
            for span in v.reshape(-1, p ** k, 2 * k).tolist()}


# -- exploratory search for vectors unbiased to two bases in dimension 6 --

def _unbiased6_objective():
    """(probe, grad, jacobian) of sum_k d_k^2 with residuals d = |R v|^2 -
    1/6 over the 12 rows R of I and F6^dag, on (L, 6) blocks of vectors,
    in the form sic.multistart takes; the state is (R v, d)."""
    rows = np.vstack([np.eye(6, dtype=complex),
                      combinat.fourier_matrix(6).conj().T])

    def probe(v):
        amps = np.matvec(rows, v)
        d = np.abs(amps) ** 2 - 1.0 / 6.0
        return np.vecdot(d, d), (amps, d)

    def grad(state):
        amps, d = state
        return 4.0 * np.matvec(rows.conj().T, d * amps)

    def jacobian(state):
        amps, d = state
        da = amps.conj()[:, :, None] * rows
        return d, np.concatenate([2.0 * da.real, -2.0 * da.imag], axis=2)

    return probe, grad, jacobian


def search_unbiased6(restarts: int = 24, seed: int = 0,
                     tol: float = 1e-18) -> dict:
    """Local search for unit vectors in dimension 6 unbiased to both the
    computational and the Fourier basis, by sic.multistart.  Reports only
    what it finds: the number of distinct solutions below tol among the
    restarts.
    """
    runs, stats = sic.multistart(6, restarts, seed, _unbiased6_objective(),
                                 tol)
    # at a solution every |v_i| = 1/sqrt(6), so v[0] fixes the phase (np.hypot
    # rounds as abs(v[0]) does); hits sort on Re v_0, Im v_0, Re v_1, ... to
    # 6 places, and one within 1e-6 of a hit kept before it is dropped
    hits = np.reshape([v for v, f in runs if f < tol], (-1, 6))
    hits = hits * (hits[:, :1].conj() / np.hypot(hits[:, :1].real,
                                                  hits[:, :1].imag))
    hits = hits[np.lexsort(np.round(hits, 6).view(float).T[::-1])]
    keep = np.zeros(len(hits), bool)
    for i, v in enumerate(hits):
        keep[i] = (np.abs(v - hits[keep]).max(axis=1) > 1e-6).all()
    return {"count": int(keep.sum()),
            "vectors": hits[keep],
            # np.min keeps a NaN that Python's min drops unless it is first
            "min_value": float(np.min(stats["final_values"])),
            "restarts": restarts,
            "stats": stats}
