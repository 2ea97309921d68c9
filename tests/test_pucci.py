import numpy as np
import pytest

from boundarylab import DomainError, EllipticityPair, pucci_minus, pucci_plus, sym_eigvals


def test_ellipticity_validation():
    E = EllipticityPair(1.0, 3.0)
    assert not E.is_laplacian
    assert EllipticityPair(2.0, 2.0).is_laplacian
    with pytest.raises(DomainError):
        EllipticityPair(0.0, 1.0)
    with pytest.raises(DomainError):
        EllipticityPair(2.0, 1.0)


def test_eigvals_against_lapack():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(50):
            A = rng.normal(size=(n, n))
            A = A + A.T
            got = sym_eigvals(A)
            want = np.linalg.eigvalsh(A)
            np.testing.assert_allclose(got, want, atol=1e-10 * max(1, np.abs(A).max()))


def test_eigvals_rejects_asymmetric():
    with pytest.raises(DomainError):
        sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        sym_eigvals(np.ones((2, 3)))


def test_pucci_closed_forms():
    E = EllipticityPair(1.0, 3.0)
    M = np.diag([2.0, -1.0])
    assert pucci_minus(E, M) == pytest.approx(1.0 * 2.0 + 3.0 * (-1.0))
    assert pucci_plus(E, M) == pytest.approx(3.0 * 2.0 + 1.0 * (-1.0))
    # definite matrices
    assert pucci_minus(E, np.eye(2)) == pytest.approx(2.0)
    assert pucci_plus(E, -np.eye(3)) == pytest.approx(-3.0)


def test_pucci_laplacian_collapse():
    E = EllipticityPair(2.0, 2.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        M = A + A.T
        assert pucci_minus(E, M) == pytest.approx(2.0 * np.trace(M), abs=1e-10)
        assert pucci_plus(E, M) == pytest.approx(2.0 * np.trace(M), abs=1e-10)


def test_pucci_extremal_over_random_admissible():
    # Tr(A M) for any admissible A must lie between M-(M) and M+(M)
    E = EllipticityPair(0.5, 2.5)
    rng = np.random.default_rng(21)
    for _ in range(10):
        B = rng.normal(size=(2, 2))
        M = B + B.T
        lo, hi = pucci_minus(E, M), pucci_plus(E, M)
        assert lo <= hi
        for _ in range(500):
            Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            lams = rng.uniform(E.lam, E.Lam, 2)
            A = Q @ np.diag(lams) @ Q.T
            t = np.trace(A @ M)
            assert lo - 1e-10 <= t <= hi + 1e-10


def test_pucci_concavity_signs():
    # M-(M+N) >= M-(M) + M-(N); M+ is the negative mirror
    E = EllipticityPair(1.0, 2.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        B1, B2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        M, N = B1 + B1.T, B2 + B2.T
        assert pucci_minus(E, M + N) >= pucci_minus(E, M) + pucci_minus(E, N) - 1e-10
        assert pucci_minus(E, M) == pytest.approx(-pucci_plus(E, -M), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacks_match_per_matrix(n):
    E = EllipticityPair(0.5, 2.5)
    rng = np.random.default_rng(30 + n)
    B = rng.normal(size=(40, n, n))
    M = B + np.swapaxes(B, -1, -2)
    ev = sym_eigvals(M)
    assert ev.shape == (40, n)
    lo, hi = pucci_minus(E, M), pucci_plus(E, M)
    assert lo.shape == hi.shape == (40,)
    for k in range(40):
        np.testing.assert_array_equal(ev[k], sym_eigvals(M[k]))
        assert lo[k] == pucci_minus(E, M[k])
        assert hi[k] == pucci_plus(E, M[k])
    assert isinstance(pucci_minus(E, M[0]), float)


def test_stack_rejects_one_asymmetric_member():
    M = np.tile(np.eye(3), (5, 1, 1))
    M[3, 0, 2] = 1.0
    with pytest.raises(DomainError):
        sym_eigvals(M)
    with pytest.raises(DomainError):
        pucci_minus(EllipticityPair(1.0, 2.0), M)
    with pytest.raises(DomainError):
        sym_eigvals(np.ones((2, 3, 2)))
