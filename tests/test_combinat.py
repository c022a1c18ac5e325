import numpy as np
import pytest

from finhilb import combinat, weyl


def test_latin_from_group_goldens():
    assert combinat.latin_from_group(1).tolist() == [[0]]
    assert combinat.latin_from_group(3).tolist() == [
        [0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert combinat.is_latin(combinat.latin_from_group(6))


def test_is_latin_rejects_repeats():
    assert combinat.is_latin(combinat.latin_from_group(4))
    bad = combinat.latin_from_group(3).copy()
    bad[0, 0] = bad[0, 1]
    assert not combinat.is_latin(bad)
    assert not combinat.is_latin(np.zeros((2, 3), dtype=int))


def _are_orthogonal(L1, L2):
    """True iff all n^2 ordered symbol pairs (L1(i,j), L2(i,j)) are
    distinct."""
    L1, L2 = np.asarray(L1), np.asarray(L2)
    if L1.shape != L2.shape:
        raise ValueError("order mismatch")
    return len(set(zip(L1.ravel().tolist(), L2.ravel().tolist()))) \
        == L1.size


def _latin_reduce(L):
    """Reduced form: first row 0..n-1 (by renaming symbols), then rows
    sorted so the first column reads 0..n-1."""
    L = np.asarray(L)
    rename = np.empty(len(L), dtype=int)
    rename[L[0]] = np.arange(len(L))
    L = rename[L]
    return L[np.argsort(L[:, 0])]


def test_orthogonal_pair_order3():
    L1, L2 = combinat.mols_from_field(3)
    assert combinat.is_latin(L1) and combinat.is_latin(L2)
    assert _are_orthogonal(L1, L2)
    assert _are_orthogonal(L2, L1)


def test_same_square_not_self_orthogonal():
    L = combinat.latin_from_group(3)
    assert not _are_orthogonal(L, L)
    with pytest.raises(ValueError):
        _are_orthogonal(L, combinat.latin_from_group(4))


def test_order4_orthogonal_pair_exists():
    # rank square and suit square of a 4x4 double array
    squares = combinat.mols_from_field(4)
    assert _are_orthogonal(squares[0], squares[1])


def test_mols_counts_and_orthogonality():
    assert len(combinat.mols_from_field(2)) == 1
    for q in [3, 4, 5]:
        squares = combinat.mols_from_field(q)
        assert len(squares) == q - 1
        for a in range(len(squares)):
            assert combinat.is_latin(squares[a])
            for b in range(a + 1, len(squares)):
                assert _are_orthogonal(squares[a], squares[b])
    with pytest.raises(ValueError, match="no field of this order"):
        combinat.mols_from_field(6)


def test_reduced_latin_counts():
    assert [combinat.count_reduced_latin(n) for n in [2, 3, 4]] == [1, 1, 4]


def test_latin_reduce_form():
    L = _latin_reduce(combinat.mols_from_field(4)[2])
    assert L[0].tolist() == [0, 1, 2, 3]
    assert L[:, 0].tolist() == [0, 1, 2, 3]
    assert combinat.is_latin(L)


def test_fourier_goldens():
    F2 = combinat.fourier_matrix(2)
    assert np.abs(F2 - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-12
    w = np.exp(2j * np.pi / 3)
    F3 = combinat.fourier_matrix(3)
    target = np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]]) / np.sqrt(3)
    assert np.abs(F3 - target).max() < 1e-12


def test_fourier_flat_unitary_up_to_12():
    for n in range(2, 13):
        assert combinat.is_complex_hadamard(combinat.fourier_matrix(n))


def test_equivalence_column_swap():
    F3 = combinat.fourier_matrix(3)
    swapped = F3[:, [1, 0, 2]]
    assert combinat.hadamard_equivalent(F3, swapped)


def test_equivalence_sign_flip_dim2():
    F2 = combinat.fourier_matrix(2)
    other = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    assert combinat.hadamard_equivalent(F2, other)


def test_family4_members():
    F4 = combinat.fourier_matrix(4)
    F22 = np.kron(combinat.fourier_matrix(2), combinat.fourier_matrix(2))
    assert combinat.is_complex_hadamard(combinat.family4(0.0))
    assert combinat.is_complex_hadamard(combinat.family4(0.7))
    assert combinat.hadamard_equivalent(combinat.family4(0.0), F22)
    assert combinat.hadamard_equivalent(combinat.family4(np.pi / 2), F4)


def test_fourier4_not_equivalent_to_tensor_square():
    F4 = combinat.fourier_matrix(4)
    F22 = np.kron(combinat.fourier_matrix(2), combinat.fourier_matrix(2))
    assert not combinat.hadamard_equivalent(F4, F22)


def test_equivalence_guard():
    with pytest.raises(ValueError, match="too large"):
        combinat.hadamard_equivalent(combinat.fourier_matrix(7),
                                     combinat.fourier_matrix(7))


def test_werner_dim3_first_triple():
    V = combinat.werner_basis(combinat.latin_from_group(3),
                              combinat.fourier_matrix(3))
    w = np.exp(2j * np.pi / 3)
    s = 1 / np.sqrt(3)
    om00 = np.zeros(9, dtype=complex)
    om00[[0, 4, 8]] = s
    om01 = np.zeros(9, dtype=complex)
    om01[[0, 4, 8]] = s * np.array([1, w, w ** 2])
    om02 = np.zeros(9, dtype=complex)
    om02[[0, 4, 8]] = s * np.array([1, w ** 2, w])
    assert np.abs(V[0] - om00).max() < 1e-12
    assert np.abs(V[1] - om01).max() < 1e-12
    assert np.abs(V[2] - om02).max() < 1e-12


def test_werner_dim2_is_bell_basis_up_to_phase():
    V = combinat.werner_basis(combinat.latin_from_group(2),
                              combinat.fourier_matrix(2))
    s = 1 / np.sqrt(2)
    bell = np.array([
        [s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]],
        dtype=complex)
    for v in V:
        assert max(abs(abs(np.vdot(b, v)) - 1) < 1e-10 for b in bell)


def test_werner_gram_and_entanglement():
    for n in [2, 3, 4]:
        V = combinat.werner_basis(combinat.latin_from_group(n),
                                  combinat.fourier_matrix(n))
        gram = V.conj() @ V.T
        assert np.abs(gram - np.eye(n * n)).max() < 1e-10
        for v in V:
            ra, rb = combinat.reduced_density_matrices(v, n)
            assert np.abs(ra - np.eye(n) / n).max() < 1e-10
            assert np.abs(rb - np.eye(n) / n).max() < 1e-10


def test_werner_random_latin_squares_still_orthonormal():
    rng = np.random.default_rng(5)
    for n in [3, 4, 5]:
        L = combinat.latin_from_group(n)
        for _ in range(4):
            L = L[rng.permutation(n)][:, rng.permutation(n)]
            sym = rng.permutation(n)
            L = sym[L]
            assert combinat.is_latin(L)
            V = combinat.werner_basis(L, combinat.fourier_matrix(n))
            assert np.abs(V.conj() @ V.T - np.eye(n * n)).max() < 1e-10


def test_werner_rejects_mismatch():
    with pytest.raises(ValueError):
        combinat.werner_basis(combinat.latin_from_group(3),
                              combinat.fourier_matrix(4))
    with pytest.raises(ValueError, match="not a Latin square"):
        combinat.werner_basis(np.zeros((3, 3), dtype=int),
                              combinat.fourier_matrix(3))


def test_size_caps_fire_before_any_array_is_built(monkeypatch):
    # uncapped, werner --n 200 would build a 40000 x 40000 complex basis
    # (25.6 GB); each cap is checked before the first numpy call, so with
    # numpy unreachable cap + 1 still raises ValueError
    assert combinat.fourier_matrix(128).shape == (128, 128)
    assert combinat.werner_basis(combinat.latin_from_group(32),
                                 combinat.fourier_matrix(32)).shape \
        == (1024, 1024)
    latin, had = combinat.latin_from_group(33), combinat.fourier_matrix(33)
    monkeypatch.setattr(combinat, "np", None)
    with pytest.raises(ValueError, match="at most 32"):
        combinat.werner_basis(latin, had)
    for bad in (0, 129):
        with pytest.raises(ValueError, match="between 1 and 128"):
            combinat.fourier_matrix(bad)
        with pytest.raises(ValueError, match="between 1 and 128"):
            combinat.latin_from_group(bad)


def test_vector_from_identity():
    v = combinat.vector_from_unitary(np.eye(2))
    assert np.abs(v - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-12


def test_vector_from_shift_matches_entangled_basis():
    X = weyl.displacement(3, 1, 0)
    v = combinat.vector_from_unitary(X)
    target = np.zeros(9, dtype=complex)   # (|10> + |21> + |02>)/sqrt(3)
    target[[3, 7, 2]] = 1 / np.sqrt(3)
    assert np.abs(v - target).max() < 1e-12
    V = combinat.werner_basis(combinat.latin_from_group(3),
                              combinat.fourier_matrix(3))
    assert np.abs(v - V[2 * 3 + 0]).max() < 1e-12


def test_vector_overlaps_are_normalized_operator_traces():
    rng = np.random.default_rng(3)
    for n in [2, 3]:
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        U, _ = np.linalg.qr(A)
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V2, _ = np.linalg.qr(B)
        lhs = np.vdot(combinat.vector_from_unitary(U),
                      combinat.vector_from_unitary(V2))
        rhs = np.trace(U.conj().T @ V2) / n
        assert abs(lhs - rhs) < 1e-10


def test_vector_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        combinat.vector_from_unitary(np.ones((2, 2)))


def test_check_unitary_holds_the_given_tolerance_and_fails_on_nan():
    u = combinat.fourier_matrix(5)
    combinat.check_unitary(u)
    off = u * (1 + 1e-9)
    combinat.check_unitary(off, 1e-8)
    for bad, tol in ((off, 1e-10), (np.full((2, 2), np.nan), 1.0)):
        with pytest.raises(ValueError, match="not unitary"):
            combinat.check_unitary(bad, tol)


def test_werner_dim3_vectors_are_vectorized_displacements():
    V = combinat.werner_basis(combinat.latin_from_group(3),
                              combinat.fourier_matrix(3))
    disp_vecs = [combinat.vector_from_unitary(weyl.displacement(3, r, s))
                 for r in range(3) for s in range(3)]
    matched = 0
    for v in V:
        if any(abs(abs(np.vdot(d, v)) - 1) < 1e-10 for d in disp_vecs):
            matched += 1
    assert matched == 9
