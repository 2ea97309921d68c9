"""Monotone finite-difference solver on Omega cap B_r with Dirichlet data.

2-D only.  The standard stencil uses the 5-point Laplacian with
Shortley-Weller shortened arms where the grid meets the graph boundary or
the circle; the wide stencil adds the six rotated lattice directions
(1, +-1), (2, 1), (-1, 2), (1, 2) and (-2, 1), so that anisotropic and Pucci
(Bellman) operators admit a monotone decomposition.
Every operator is a Bellman problem inf or sup over a set of policies,
each a coefficient matrix A with the linear operator Tr(A D^2 u).  The
Pucci operators take the extremal matrices a v v^T + b w w^T, a, b in
{lambda, Lambda}; a linear operator (Laplace or a fixed field A(x)) is the
one-policy case.  All are solved by one policy iteration, with a fixed
tie-break for determinism; one policy settles in one round.
On a dilation-invariant graph an assembled system is rescaled onto the
problem on B_{2^j r} bit for bit (`_DiscreteSystem.dilated`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import nnls
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, DomainError, MonotonicityError
from .geometry import BoundaryGraph
from .pucci import EllipticityPair, sym_eigvals

__all__ = [
    "LaplaceOp", "FixedOp", "PucciOp", "GridProblem", "GridSolution",
    "discretize", "solve", "abp_check", "ABPReport",
]


@dataclass(frozen=True)
class LaplaceOp:
    kind: str = "laplace"


@dataclass(frozen=True)
class FixedOp:
    """Tr(A(x) D^2 u) for a fixed coefficient field A(x) in [lam I, Lam I].

    A is vectorized: on an (m, 2) node array it returns an (m, 2, 2) stack,
    or one (2, 2) matrix, which every node shares, for constant coefficients.
    """
    A: Callable[[np.ndarray], np.ndarray]
    E: Optional[EllipticityPair] = None
    kind: str = "fixed"


@dataclass(frozen=True)
class PucciOp:
    E: EllipticityPair
    sign: str    # "minus" or "plus"
    kind: str = "pucci"


# lattice directions; the first two serve the 5-point stencil, all eight
# the wide stencil
_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2), (1, 2), (-2, 1)]
# orthogonal frames among the directions, as index pairs into _DIRECTIONS
_FRAMES = [(0, 1), (2, 3), (4, 5), (6, 7)]
# policy iteration stops with a ConvergenceError after this many rounds
_MAX_POLICY_ROUNDS = 200


def _direction_count(stencil: str) -> int:
    """Lattice directions of a stencil: 2 for "standard5", 8 for "wide"."""
    if stencil == "standard5":
        return 2
    if stencil == "wide":
        return len(_DIRECTIONS)
    raise DomainError(f"unknown stencil {stencil!r}")


class GridProblem:
    """A discretized Dirichlet problem on Omega cap B_r.

    rhs and dirichlet are vectorized callables on (m, 2) point arrays that
    return (m,) values, or a scalar for constant data.  rhs is evaluated at
    the interior nodes.  dirichlet is evaluated at the exact cut
    intersection points, once per assembly or dilation, on a single
    (n_cut, 2) array.  A FixedOp field is vectorized too.  stencil is
    "standard5" (2 lattice directions) or "wide" (all 8 _DIRECTIONS).
    """

    def __init__(self, graph: BoundaryGraph, r: float, h: float, operator,
                 rhs: Callable, dirichlet: Callable, stencil: str = "standard5"):
        if graph.dim != 2:
            raise DomainError("the grid solver is 2-D only")
        if h > r / 16 * (1 + 1e-12):
            raise DomainError(f"need h <= r/16, got h={h}, r={r}")
        self.graph = graph
        self.r = float(r)
        n = int(round(2 * r / h))
        self.n = n
        self.h = 2 * r / n
        self.operator = operator
        self.rhs = rhs
        self.dirichlet = dirichlet
        self.stencil = stencil
        self.n_dir = _direction_count(stencil)


def _values_at(fn: Callable, pts: np.ndarray, name: str) -> np.ndarray:
    """fn(pts) as an (m,) float array; a scalar return is broadcast."""
    vals = np.asarray(fn(pts), dtype=float)
    if vals.ndim == 0:
        return np.full(len(pts), float(vals))
    if vals.shape != (len(pts),):
        raise DomainError(f"{name} returned shape {vals.shape} on {len(pts)} points; "
                          f"it must be vectorized, returning shape ({len(pts)},)")
    return vals


class _DiscreteSystem:
    """Per-direction second-difference operators plus boundary bookkeeping.

    D and c are in the units of the assembled problem; the operator of the
    system's own problem is unit * (D u + c), with unit = 1 until dilated.
    """

    def __init__(self, problem: GridProblem):
        g = problem.graph
        r, h, n = problem.r, problem.h, problem.n
        xs = -r + h * np.arange(n + 1)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        inside = (X**2 + Y**2 < r**2 * (1 - 1e-14)) & (Y > g.gamma(X.reshape(-1, 1)).reshape(X.shape))
        self.ids = -np.ones(X.shape, dtype=int)
        self.ids[inside] = np.arange(inside.sum())
        self.m = m = int(inside.sum())
        if m == 0:
            raise DomainError("no interior grid nodes; refine the grid or enlarge r")
        self.nodes = np.stack([X[inside], Y[inside]], axis=-1)
        self.shape = X.shape
        self.xs = xs

        # steps[d, k] is the lattice step along direction d with sign (+1, -1)[k]
        dirs = np.array(_DIRECTIONS[: problem.n_dir])
        steps = dirs[:, None, :] * np.array([1, -1])[None, :, None]
        # neighbour ids, (n_dir, m, 2); -1 outside the domain or off the grid
        pad = int(np.abs(steps).max())
        ii, jj = np.nonzero(inside)
        nbr = np.pad(self.ids, pad, constant_values=-1)[
            ii[None, :, None] + pad + steps[:, None, :, 0],
            jj[None, :, None] + pad + steps[:, None, :, 1]]
        # every cut segment, direction-major, then node, then sign
        cd, ck, cs = np.nonzero(nbr < 0)
        W = steps[cd, cs] * h
        X0 = self.nodes[ck]
        s_cut = _cut_fractions(g, r, X0, W)
        self.boundary_points = X0 + s_cut[:, None] * W
        frac = np.ones(nbr.shape)
        frac[cd, ck, cs] = s_cut

        arms = h * np.hypot(dirs[:, 0], dirs[:, 1])
        rows = np.repeat(np.arange(m), 3)
        self.D = []            # per-direction sparse operators
        cut_weights = []       # the arm weight of each cut segment, in cut order
        for d in range(len(dirs)):
            # Shortley-Weller weights from the (possibly shortened) arms
            dp, dm = (frac[d] * arms[d]).T
            wgt = np.column_stack([2.0 / (dp * (dp + dm)), 2.0 / (dm * (dp + dm))])
            # per row: the diagonal, then the + and - neighbours where inside
            cols = np.column_stack([np.arange(m), nbr[d]]).ravel()
            vals = np.column_stack([-wgt.sum(axis=1), wgt]).ravel()
            keep = cols >= 0
            self.D.append(sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                                            shape=(m, m)))
            at = cd == d
            cut_weights.append(wgt[ck[at], cs[at]])
        # each cut segment's (direction, node) row of c and its arm weight
        self._cut_rows = cd * m + ck
        self._cut_weights = np.concatenate(cut_weights)
        self.unit = 1.0
        self._factor = []      # [A, LU] of the one shared frozen matrix, once built
        self._set_data(problem)
        self._set_operator(problem)

    def _set_data(self, problem: GridProblem) -> None:
        """Evaluate problem's Dirichlet data at the cut points, and c from it."""
        self.problem = problem
        self.boundary_values = _values_at(problem.dirichlet, self.boundary_points,
                                          "dirichlet")
        # per-direction boundary vectors c_d; the two arms of a row add in order
        n_dir = len(self.D)
        self.c = np.bincount(self._cut_rows, self._cut_weights * self.boundary_values,
                             minlength=n_dir * self.m).reshape(n_dir, self.m)

    def _set_operator(self, problem: GridProblem) -> None:
        self.alphas, self.sense = _operator_weights(problem, self.nodes)
        # nonnegative direction weights for every policy make every
        # frozen-policy matrix monotone (an M-matrix)
        min_alpha = float(self.alphas.min())
        if min_alpha < -1e-12:
            raise MonotonicityError(
                f"negative direction weight {min_alpha:g}: stencil too narrow "
                "for this operator's anisotropy"
            )
        self.certificate = {"min_direction_weight": max(min_alpha, 0.0), "monotone": True}

    def dilated(self, problem: GridProblem) -> "_DiscreteSystem":
        """The system of problem: this one's problem with r scaled by s = 2^j.

        On a dilation-invariant graph every coordinate scales by s bit for
        bit and every second difference by exactly 1/s^2, so D is shared
        and only unit changes.  The data are evaluated at the scaled points.
        """
        old = self.problem
        s = problem.r / old.r
        if not (problem.graph is old.graph and old.graph.dilation_invariant
                and problem.n == old.n and problem.n_dir == old.n_dir
                and problem.operator == old.operator and np.frexp(s)[0] == 0.5):
            raise DomainError("dilated needs the same grid, stencil and operator on a "
                              "dilation-invariant graph, with r scaled by a power of two")
        new = copy.copy(self)
        new.nodes = self.nodes * s
        new.xs = self.xs * s
        new.boundary_points = self.boundary_points * s
        new.unit = self.unit / (s * s)
        new._set_data(problem)
        if self.alphas.shape[1] > 1:
            new._set_operator(problem)
        return new

    def frozen_matrix(self, alpha: np.ndarray):
        """sum_d alpha[:, d] D_d, its LU factors, and sum_d alpha[:, d] c_d.

        One policy with one shared weight row gives the same matrix on every
        call and every dilation; it is factored once.
        """
        used = [d for d in range(len(self.D)) if np.any(alpha[:, d])]
        c = np.zeros(self.m)
        for d in used:
            c += alpha[:, d] * self.c[d]
        if self._factor:
            return (*self._factor, c)
        A = None
        for d in used:
            term = sparse.diags(alpha[:, d]) @ self.D[d]
            A = term if A is None else A + term
        A = A.tocsc()
        lu = splu(A)
        if self.alphas.shape[:2] == (1, 1):
            self._factor += [A, lu]
        return A, lu, c

    def direction_values(self, u: np.ndarray) -> np.ndarray:
        """The problem's D_d u + c_d for every direction d, as an (m, n_dir) array."""
        return np.stack([self.unit * (D @ u + c) for D, c in zip(self.D, self.c)], axis=1)


# segments per sign-scan block: bounds the (rows, samples + 1) temporaries,
# and with them the peak memory of repeated solves
_SCAN_ROWS = 256


def _psi(graph: BoundaryGraph, X0: np.ndarray, W: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Height above the graph, y - Gamma(x), at X0 + t W; t broadcasts to (k, q)."""
    return X0[:, 1:] + t * W[:, 1:] - graph.gamma((X0[:, :1] + t * W[:, :1])[..., None])


def _cut_fractions(graph: BoundaryGraph, r: float, X0: np.ndarray, W: np.ndarray) -> np.ndarray:
    """First exit s in (0, 1] of each segment X0 + s W from Omega cap B_r.

    Each X0 must lie in Omega.  The circle root is closed-form.  The graph
    root is bracketed by the first of 65 equispaced s with
    y - Gamma(x) <= 0 (an exact zero is taken as is), scanned _SCAN_ROWS
    segments at a time, and bisected to a width of at most 1e-14.  A
    segment with neither root keeps s = 1: the grid can class the far node
    as outside while X0 + W evaluates just inside, e.g. y = 1e-17 above the
    flat graph.
    """
    a = np.sum(W * W, axis=1)
    b = 2.0 * np.sum(X0 * W, axis=1)
    c = np.sum(X0 * X0, axis=1) - r * r
    disc = b * b - 4 * a * c
    s_ball = (-b + np.sqrt(np.maximum(disc, 0.0))) / (2 * a)
    s = np.where((disc >= 0) & (s_ball > 0) & (s_ball <= 1 + 1e-12),
                 np.minimum(s_ball, 1.0), np.inf)

    ss = np.linspace(0.0, 1.0, 65)
    first = np.full(len(X0), -1)      # first sample at or below the graph; -1 if none
    exact = np.zeros(len(X0), dtype=bool)
    for k0 in range(0, len(X0), _SCAN_ROWS):
        blk = slice(k0, k0 + _SCAN_ROWS)
        vals = _psi(graph, X0[blk], W[blk], ss[None, :])
        below = vals <= 0
        hit = np.nonzero(below.any(axis=1))[0]
        i = below[hit].argmax(axis=1)
        first[k0 + hit] = i
        exact[k0 + hit] = vals[hit, i] == 0.0
    rows = np.nonzero(first >= 0)[0]
    root = ss[first[rows]]
    bis = ~exact[rows]
    lo, hi = ss[first[rows][bis] - 1][:, None], root[bis][:, None]
    Xb, Wb = X0[rows[bis]], W[rows[bis]]
    while lo.size and np.max(hi - lo) > 1e-14:
        mid = 0.5 * (lo + hi)
        neg = _psi(graph, Xb, Wb, mid) <= 0
        hi = np.where(neg, mid, hi)
        lo = np.where(neg, lo, mid)
    root[bis] = 0.5 * (lo + hi)[:, 0]
    s[rows] = np.minimum(s[rows], root)
    s[np.isinf(s)] = 1.0
    return np.maximum(s, 1e-10)


def _decompose_spd(A: np.ndarray, dirs: list) -> np.ndarray:
    """Nonnegative weights alpha with sum alpha_m vhat_m vhat_m^T = A.

    Closed-form axis + diagonal split when |a12| <= min(a11, a22);
    otherwise nonnegative least squares over the available directions.
    """
    a11, a22, a12 = A[0, 0], A[1, 1], A[0, 1]
    alpha = np.zeros(len(dirs))
    if abs(a12) <= min(a11, a22) + 1e-14:
        if a12 >= 0:
            need = (1, 1) in dirs or a12 == 0
            if need:
                alpha[dirs.index((1, 0))] = a11 - a12
                alpha[dirs.index((0, 1))] = a22 - a12
                if a12 > 0:
                    alpha[dirs.index((1, 1))] = 2 * a12
                return alpha
        else:
            if (1, -1) in dirs:
                alpha[dirs.index((1, 0))] = a11 + a12
                alpha[dirs.index((0, 1))] = a22 + a12
                alpha[dirs.index((1, -1))] = -2 * a12
                return alpha
    # wide fallback
    B = np.empty((3, len(dirs)))
    for m, v in enumerate(dirs):
        vv = np.asarray(v, dtype=float)
        vv /= np.linalg.norm(vv)
        B[:, m] = [vv[0] ** 2, vv[1] ** 2, vv[0] * vv[1]]
    target = np.array([a11, a22, a12])
    sol, res = nnls(B, target)
    if res > 1e-10 * max(np.linalg.norm(target), 1.0):
        raise MonotonicityError(
            f"coefficient matrix {A.tolist()} admits no nonnegative "
            "decomposition over the stencil directions; widen the stencil"
        )
    return sol


def _operator_weights(problem: GridProblem, nodes: np.ndarray):
    """Direction weights of every policy and the Bellman sense ("min"/"max").

    The weights have shape (n_policies, m or 1, n_dir): one row per node
    for a coefficient field, one shared row for constant coefficients.
    Each distinct coefficient matrix is decomposed once.
    """
    dirs = _DIRECTIONS[: problem.n_dir]
    op = problem.operator
    sense = "min"
    if isinstance(op, LaplaceOp):
        mats = np.eye(2)[None, None]
    elif isinstance(op, FixedOp):
        A = np.asarray(op.A(nodes), dtype=float)
        if A.shape not in ((2, 2), (len(nodes), 2, 2)):
            raise DomainError(f"FixedOp.A returned shape {A.shape} on {len(nodes)} nodes; "
                              f"it must return (2, 2) or ({len(nodes)}, 2, 2)")
        A = A.reshape(-1, 2, 2)
        if op.E is not None:
            ev = sym_eigvals(A)
            bad = np.nonzero((ev[:, 0] < op.E.lam - 1e-10) | (ev[:, -1] > op.E.Lam + 1e-10))[0]
            if bad.size:
                k = bad[0]
                raise DomainError(
                    f"A({nodes[k]}) has eigenvalues {ev[k]} outside "
                    f"[{op.E.lam}, {op.E.Lam}]"
                )
        mats = A[None]
    elif isinstance(op, PucciOp):
        lam, Lam = op.E.lam, op.E.Lam
        pols = []
        n_frames = 1 if op.E.is_laplacian else len(dirs) // 2
        for fi in range(n_frames):
            vi, wi = _FRAMES[fi]
            v = np.asarray(dirs[vi], dtype=float); v /= np.linalg.norm(v)
            u = np.asarray(dirs[wi], dtype=float); u /= np.linalg.norm(u)
            for a in (lam, Lam):
                for b in (lam, Lam):
                    A = a * np.outer(v, v) + b * np.outer(u, u)
                    if not any(np.allclose(A, M, atol=1e-14) for M in pols):
                        pols.append(A)
        mats = np.stack(pols)[:, None]
        sense = "min" if op.sign == "minus" else "max"
    else:
        raise DomainError(f"unknown operator {op!r}")
    distinct, inverse = np.unique(mats.reshape(-1, 4), axis=0, return_inverse=True)
    alphas = np.stack([_decompose_spd(a.reshape(2, 2), dirs) for a in distinct])
    return alphas[inverse.ravel()].reshape(mats.shape[:2] + (len(dirs),)), sense


class GridSolution:
    """Solved field on the grid; immutable after construction."""

    def __init__(self, problem: GridProblem, system: _DiscreteSystem,
                 values: np.ndarray, residual: float, iterations: int,
                 policy: np.ndarray):
        self.problem = problem
        self.nodes = system.nodes
        self.values = values
        self.residual = residual
        self.iterations = iterations
        self.h = problem.h
        self.policy = policy          # per-node policy index; all zero for linear operators
        self.certificate = system.certificate
        self.boundary_points = system.boundary_points
        self.boundary_values = system.boundary_values
        self._ids = system.ids
        self._xs = system.xs

    def interpolate(self, pts: np.ndarray, fill: Callable) -> np.ndarray:
        """Bilinear interpolation from the four surrounding grid nodes.

        Non-interior corners take the values of fill, a vectorized callable
        evaluated once on the distinct non-interior corners of the touched
        cells.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xs, h, n = self._xs, self.h, len(self._xs)
        fi = (pts[:, 0] - xs[0]) / h
        fj = (pts[:, 1] - xs[0]) / h
        i = np.clip(np.floor(fi).astype(int), 0, n - 2)
        j = np.clip(np.floor(fj).astype(int), 0, n - 2)
        tx = fi - i
        ty = fj - j
        # corners (i, j), (i+1, j), (i, j+1), (i+1, j+1), one row per point
        ci = i[:, None] + np.array([0, 1, 0, 1])
        cj = j[:, None] + np.array([0, 0, 1, 1])
        ids = self._ids[ci, cj]
        inner = ids >= 0
        c = np.empty(ids.shape)
        c[inner] = self.values[ids[inner]]
        if not inner.all():
            flat, back = np.unique(ci[~inner] * n + cj[~inner], return_inverse=True)
            c[~inner] = np.asarray(fill(xs[np.stack(np.divmod(flat, n), axis=-1)]))[back]
        return ((1 - tx) * (1 - ty) * c[:, 0] + tx * (1 - ty) * c[:, 1]
                + (1 - tx) * ty * c[:, 2] + tx * ty * c[:, 3])

    def max_interior(self) -> float:
        return float(self.values.max())

    def max_boundary(self) -> float:
        return float(self.boundary_values.max())


def discretize(problem: GridProblem) -> _DiscreteSystem:
    """Assemble the per-direction monotone difference operators."""
    return _DiscreteSystem(problem)


def _linear_solve(A, lu, c, f, tol_units):
    """Solve A u = f - c with the LU factors lu of A."""
    rhs = f - c
    u = lu.solve(rhs)
    # iterative refinement in node units (residual over the diagonal scale)
    diag = np.abs(A.diagonal())
    for _ in range(3):
        res = A @ u - rhs
        if np.max(np.abs(res) / diag) <= tol_units:
            break
        u = u - lu.solve(res)
    return u, float(np.max(np.abs(A @ u - rhs) / diag))


def solve(problem: GridProblem, system: Optional[_DiscreteSystem] = None) -> GridSolution:
    """Solve the discrete problem by policy iteration; deterministic given the problem.

    Each round solves the frozen-policy linear system (sparse LU with
    iterative refinement), then selects the optimal policy per node; the
    loop stops once the policy is stationary, so a linear operator, whose
    single policy is optimal everywhere, takes one round.  system, if
    given, must be discretize(problem) or a system dilated onto problem.
    """
    sys_ = discretize(problem) if system is None else system
    # the linear solves run in the system's units: rhs / unit is exact
    f = _values_at(problem.rhs, sys_.nodes, "rhs") / sys_.unit
    g_scale = float(np.abs(sys_.boundary_values).max()) if sys_.boundary_values.size else 0.0
    tol = 1e-10 * g_scale + 1e-10

    alphas = sys_.alphas
    # a read-only view: constant coefficients keep their one shared row
    per_node = np.broadcast_to(alphas, (len(alphas), sys_.m, alphas.shape[2]))
    rows = np.arange(sys_.m)
    policy = np.zeros(sys_.m, dtype=int)
    for it in range(1, _MAX_POLICY_ROUNDS + 1):
        # an uncached factor is freed before the next round builds its own
        u, res = _linear_solve(*sys_.frozen_matrix(per_node[policy, rows]), f, tol)
        # every policy's operator value at every node, (m, npol); optimize
        # contracts a shared weight row in BLAS, as a matrix product
        pol_vals = np.einsum("nd,pnd->np", sys_.direction_values(u), alphas, optimize=True)
        new_policy = (np.argmin(pol_vals, axis=1) if sys_.sense == "min"
                      else np.argmax(pol_vals, axis=1))
        # keep the old policy on exact ties to guarantee termination
        old_vals = pol_vals[rows, policy]
        best_vals = pol_vals[rows, new_policy]
        unchanged = np.abs(best_vals - old_vals) <= 1e-12 * (1 + np.abs(best_vals))
        new_policy[unchanged] = policy[unchanged]
        if np.array_equal(new_policy, policy):
            if res > tol:
                raise ConvergenceError(f"solve residual {res:g} exceeds {tol:g}")
            return GridSolution(problem, sys_, u, res, it, policy)
        policy = new_policy
    raise ConvergenceError(f"policy iteration did not settle in {_MAX_POLICY_ROUNDS} rounds")


@dataclass(frozen=True)
class ABPReport:
    max_interior: float
    max_boundary: float
    forcing_norm: float           # discrete L^n norm of f^-
    diameter: float
    bound_constant: float         # empirical (max_u - max_g)/(diam * ||f^-||)
    max_principle_exact: bool     # for f == 0: max attained on the boundary

    def to_dict(self):
        return {
            "max_interior": self.max_interior,
            "max_boundary": self.max_boundary,
            "forcing_norm": self.forcing_norm,
            "diameter": self.diameter,
            "empirical_C": self.bound_constant,
            "max_principle_exact": self.max_principle_exact,
        }


def abp_check(solution: GridSolution) -> ABPReport:
    """Discrete maximum-principle / ABP report for a solved problem."""
    prob = solution.problem
    f = _values_at(prob.rhs, solution.nodes, "rhs")
    h = solution.h
    n_dim = 2
    f_neg = np.minimum(f, 0.0)
    norm = float((np.sum(np.abs(f_neg) ** n_dim) * h**n_dim) ** (1.0 / n_dim))
    max_u = solution.max_interior()
    max_g = solution.max_boundary()
    diam = 2 * prob.r
    C = (max_u - max_g) / (diam * norm) if norm > 0 else 0.0
    return ABPReport(
        max_interior=max_u,
        max_boundary=max_g,
        forcing_norm=norm,
        diameter=diam,
        bound_constant=float(max(C, 0.0)),
        max_principle_exact=bool(norm == 0.0 and max_u <= max_g + 1e-12 * (1 + abs(max_g))),
    )
