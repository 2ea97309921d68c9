"""Pucci extremal operators on symmetric matrices and matrix stacks.

M-(M) = inf over lambda I <= A <= Lambda I of Tr(A M), attained at
A = lambda P+ + Lambda P- with P+- the spectral projections of M; hence

    M-(M) = lambda * sum(eig+) + Lambda * sum(eig-),
    M+(M) = Lambda * sum(eig+) + lambda * sum(eig-).

Every function takes one (n, n) matrix or an (m, n, n) stack; eigenvalues
come from batched LAPACK eigvalsh on matrix stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["EllipticityPair", "sym_eigvals", "pucci_minus", "pucci_plus"]


@dataclass(frozen=True)
class EllipticityPair:
    """Ellipticity constants 0 < lam <= Lam defining the operator class."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0 < self.lam <= self.Lam):
            raise DomainError(f"need 0 < lambda <= Lambda, got ({self.lam}, {self.Lam})")

    @property
    def is_laplacian(self) -> bool:
        return self.lam == self.Lam


def sym_eigvals(M) -> np.ndarray:
    """Ascending eigenvalues of a symmetric (n, n) matrix or (m, n, n) stack.

    Each matrix must pass np.isclose against its transpose with
    atol = 1e-12 * max(1, its largest |entry|); the symmetrised input goes
    to LAPACK.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    At = np.swapaxes(A, -1, -2)
    atol = 1e-12 * np.maximum(np.abs(A).max(axis=(-2, -1), initial=0.0), 1.0)
    if not np.isclose(A, At, atol=atol[..., None, None]).all():
        raise DomainError("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (A + At))


def _pucci(M, up: float, down: float):
    """up * sum(eig+) + down * sum(eig-), per matrix."""
    ev = sym_eigvals(M)
    val = up * ev.clip(min=0.0).sum(axis=-1) + down * ev.clip(max=0.0).sum(axis=-1)
    return float(val) if val.ndim == 0 else val


def pucci_minus(E: EllipticityPair, M):
    """inf over admissible A of Tr(A M); a float, or (m,) for a stack."""
    return _pucci(M, E.lam, E.Lam)


def pucci_plus(E: EllipticityPair, M):
    """sup over admissible A of Tr(A M); a float, or (m,) for a stack."""
    return _pucci(M, E.Lam, E.lam)
