"""Monotone finite-difference solver on Omega cap B_r with Dirichlet data.

2-D only.  Second differences run along the eight lattice directions
(1, 0), (0, 1), (1, +-1), (2, 1), (-1, 2), (1, 2) and (-2, 1), with
Shortley-Weller shortened arms where the grid meets the graph boundary or
the circle.
Every operator is a Bellman problem inf or sup over a set of policies,
each a coefficient matrix A with the linear operator Tr(A D^2 u).  The
Pucci operators take the extremal matrices a v v^T + b w w^T, a, b in
{lambda, Lambda}, of the four orthogonal lattice frames (v, w); a linear
operator (Laplace or a fixed field A(x)) is the one-policy case.  Each
policy is split once into nonnegative weights over the eight directions,
and only the directions that some policy weights are assembled: the
5-point stencil for the Laplacian and diagonal coefficients, more for
anisotropic and Pucci operators.  The assembled directions stack, node-major,
into one sparse matrix D and one boundary vector c, so a policy's operator
sum_d alpha_d (D_d u + c_d) is one sparse product.  All are solved by one
policy iteration, with a fixed tie-break for determinism; one policy ends
after its first linear solve.
Every frozen-policy matrix is a nonsingular M-matrix, and so is each of
its principal submatrices, so it has an LU factorization with positive
pivots in any symmetric ordering: it is factored on a minimum-degree
ordering of A^T + A, which fills in less than a column ordering, with every
pivot kept on the diagonal and no pivot search.  Its supernodes are single
columns (relax = panel_size = 1): the ordering, the pivots and the fill are
those of SuperLU's relaxed supernodes, but on these sparse 2-D lattice
matrices the dense kernels of wider supernodes cost more than they save.
The residual certificate, relative to the problem's own data, guards that
factor.
On a dilation-invariant graph an assembled system is rescaled onto the
problem on B_{2^j r} bit for bit (`_DiscreteSystem.dilated`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, MonotonicityError
from .geometry import BoundaryGraph
from .pucci import EllipticityPair, sym_eigvals
from .report import Report

__all__ = [
    "LaplaceOp", "FixedOp", "PucciOp", "GridProblem", "GridSolution",
    "discretize", "solve", "abp_check", "ABPReport",
]


@dataclass(frozen=True)
class LaplaceOp:
    """The Laplacian, Tr(D^2 u)."""


@dataclass(frozen=True)
class FixedOp:
    """Tr(A(x) D^2 u) for a fixed coefficient field A(x) in [lam I, Lam I].

    A is vectorized: on an (m, 2) node array it returns an (m, 2, 2) stack,
    or one (2, 2) matrix, which every node shares, for constant coefficients.
    """
    A: Callable[[np.ndarray], np.ndarray]
    E: Optional[EllipticityPair] = None


@dataclass(frozen=True)
class PucciOp:
    E: EllipticityPair
    sign: str    # "minus" or "plus"

    def __post_init__(self):
        if self.sign not in ("minus", "plus"):
            raise DomainError(f"sign must be 'minus' or 'plus', got {self.sign!r}")


# lattice directions in orthogonal pairs (0, 1), (2, 3), (4, 5), (6, 7)
_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2), (1, 2), (-2, 1)]
# their unit vectors
_UNITS = [np.asarray(d, dtype=float) / np.linalg.norm(d) for d in _DIRECTIONS]
# policy iteration stops with a ConvergenceError after this many rounds
_MAX_POLICY_ROUNDS = 200


class GridProblem:
    """A discretized Dirichlet problem on Omega cap B_r, on the grid of n cells
    across the diameter: spacing h = 2r/n, with n >= 32 (h <= r/16).

    rhs and dirichlet are vectorized callables on (m, 2) point arrays that
    return (m,) values, or a scalar for constant data.  rhs is evaluated at
    the interior nodes.  dirichlet is evaluated at the exact cut
    intersection points, once per assembly or dilation, on a single
    (n_cut, 2) array.  A FixedOp field is vectorized too.  The lattice
    directions of the scheme follow from the operator.
    """

    def __init__(self, graph: BoundaryGraph, r: float, n: int, operator,
                 rhs: Callable, dirichlet: Callable):
        if graph.dim != 2:
            raise DomainError("the grid solver is 2-D only")
        # written so that NaN fails it
        if not r > 0:
            raise DomainError(f"need a radius r > 0, got r={r!r}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 32:
            raise DomainError(f"need an integer n >= 32 cells across the diameter, got n={n!r}")
        self.graph = graph
        self.r = float(r)
        self.n = n = int(n)
        self.h = 2 * r / n
        self.operator = operator
        self.rhs = rhs
        self.dirichlet = dirichlet


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
    """The stacked second-difference operator plus boundary bookkeeping.

    D (CSR, (m n_dir, m)) and c (m n_dir,) are node-major: row n_dir i + d is
    direction d at node i.  They are in the units of the assembled problem;
    the operator of the system's own problem is unit * (D u + c), with unit = 1
    until dilated.
    """

    def __init__(self, problem: GridProblem):
        # imported here, not at module level: scipy.sparse takes about 0.2 s to
        # import, and the distance and barrier checks never assemble a system
        from scipy import sparse
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
        self.xs = xs

        alphas, self.sense = _operator_weights(problem.operator, self.nodes)
        # assemble the directions that some policy weights; a per-node field
        # keeps all eight, since its weights move with the nodes under dilation
        support = alphas.any(axis=(0, 1)) | (alphas.shape[1] > 1)
        self.alphas = alphas[..., support]
        # steps[d, k] is the lattice step along direction d with sign (+1, -1)[k]
        dirs = np.array(_DIRECTIONS)[support]
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

        # Shortley-Weller weights from the (possibly shortened) arms, node-major:
        # wgt[i, d] holds the + and - arm weights of direction d at node i
        self.n_dir = n_dir = len(dirs)
        arms = np.ones((m, n_dir, 2))
        arms[ck, cd, cs] = s_cut
        arms *= (h * np.hypot(dirs[:, 0], dirs[:, 1]))[:, None]
        dp, dm = arms[..., 0], arms[..., 1]
        wgt = np.stack([2.0 / (dp * (dp + dm)), 2.0 / (dm * (dp + dm))], axis=-1)
        # row n_dir i + d: the diagonal, then the + and - neighbours where inside
        cols = np.insert(nbr.transpose(1, 0, 2), 0, np.arange(m)[:, None], axis=-1).ravel()
        vals = np.insert(wgt, 0, -wgt.sum(axis=-1), axis=-1).ravel()
        keep = cols >= 0
        self.D = sparse.csr_matrix((vals[keep], (np.repeat(np.arange(m * n_dir), 3)[keep],
                                                 cols[keep])), shape=(m * n_dir, m))
        # each cut segment's (node, direction) row of c and its arm weight
        self._cut_rows = ck * n_dir + cd
        self._cut_weights = wgt[ck, cd, cs]
        self.unit = 1.0
        self._factor = []      # [pick, A, LU, |diag A|] of the one shared frozen matrix
        self._set_data(problem)

    def _set_data(self, problem: GridProblem, values=None) -> None:
        """Take problem's Dirichlet data at the cut points, values if given and
        problem.dirichlet evaluated there if not, and c from them."""
        self.problem = problem
        self.boundary_values = (_values_at(problem.dirichlet, self.boundary_points, "dirichlet")
                                if values is None else values)
        # the stacked boundary vector, row n_dir i + d; the two arms of a row add in order
        self.c = np.bincount(self._cut_rows, self._cut_weights * self.boundary_values,
                             minlength=self.n_dir * self.m)

    @property
    def certificate(self) -> dict:
        # _decompose_spd returns nonnegative weights up to rounding, or raises,
        # so every frozen-policy matrix is monotone (an M-matrix)
        return {"min_direction_weight": max(float(self.alphas.min()), 0.0), "monotone": True}

    def dilated(self, problem: GridProblem, values=None) -> "_DiscreteSystem":
        """The system of problem: this one's problem with r scaled by s = 2^j.

        On a dilation-invariant graph every coordinate scales by s bit for
        bit and every second difference by exactly 1/s^2, so D is shared
        and only unit changes.  The data are values, or problem.dirichlet
        evaluated at the scaled points.
        """
        old = self.problem
        s = problem.r / old.r
        if not (problem.graph is old.graph and old.graph.dilation_invariant
                and problem.n == old.n and problem.operator == old.operator
                and np.frexp(s)[0] == 0.5):
            raise DomainError("dilated needs the same grid and operator on a "
                              "dilation-invariant graph, with r scaled by a power of two")
        new = copy.copy(self)
        new.nodes = self.nodes * s
        new.xs = self.xs * s
        new.boundary_points = self.boundary_points * s
        new.unit = self.unit / (s * s)
        new._set_data(problem, values)
        if self.alphas.shape[1] > 1:
            new.alphas = _operator_weights(problem.operator, new.nodes)[0]
        return new

    def frozen_matrix(self, alpha: np.ndarray):
        """sum_d alpha[:, d] D_d, its LU factors, sum_d alpha[:, d] c_d and |diag|.

        Each is one product with the row selection pick: A = pick D, c = pick c.
        SuperLU factors A as the module docstring says: symmetric mode, the
        MMD_AT_PLUS_A ordering, diagonal pivots and single-column supernodes
        (scripts/splu_supernode_table.py).  One policy with one shared weight
        row gives the same pick and A on every call and every dilation: they
        are built once, with the factor and the diagonal.
        """
        if self._factor:
            pick, A, lu, diag = self._factor
            return A, lu, pick @ self.c, diag
        # imported here, not at module level: scipy.sparse and its linalg take
        # about 0.5 s to import, and only a solve needs them
        from scipy import sparse
        from scipy.sparse.linalg import splu
        # pick's row i holds alpha[i, :] at columns n_dir i, ..., n_dir i + n_dir - 1
        pick = sparse.csr_matrix((alpha.ravel(), np.arange(alpha.size),
                                  np.arange(0, alpha.size + 1, self.n_dir)),
                                 shape=(self.m, self.m * self.n_dir))
        A = (pick @ self.D).tocsc()
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
                  panel_size=1, options={"SymmetricMode": True})
        diag = np.abs(A.diagonal())
        if self.alphas.shape[:2] == (1, 1):
            self._factor += [pick, A, lu, diag]
        return A, lu, pick @ self.c, diag

    def direction_values(self, u: np.ndarray) -> np.ndarray:
        """The problem's D_d u + c_d for every assembled direction d, as an (m, n_dir) array."""
        return (self.unit * (self.D @ u + self.c)).reshape(self.m, self.n_dir)


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


def _decompose_spd(A: np.ndarray) -> np.ndarray:
    """Nonnegative weights alpha over _DIRECTIONS with sum alpha_m vhat_m vhat_m^T = A.

    Closed-form axis + diagonal split when |a12| <= min(a11, a22);
    otherwise nonnegative least squares over all eight directions.
    """
    a11, a22, a12 = A[0, 0], A[1, 1], A[0, 1]
    alpha = np.zeros(len(_DIRECTIONS))
    # b = |a12|, except that a12 = -0.0 stays -0.0: a11 - b is then bitwise
    # a11 - a12 for a12 >= 0 and a11 + a12 for a12 < 0
    b = -a12 if a12 < 0 else a12
    if b <= min(a11, a22) + 1e-14:
        alpha[_DIRECTIONS.index((1, 0))] = a11 - b
        alpha[_DIRECTIONS.index((0, 1))] = a22 - b
        if b > 0:
            alpha[_DIRECTIONS.index((1, 1) if a12 > 0 else (1, -1))] = 2 * b
        return alpha
    # imported here, not at module level: scipy.optimize takes about 0.5 s to
    # import, and only this fallback needs it
    from scipy.optimize import nnls
    B = np.array([[v[0] ** 2, v[1] ** 2, v[0] * v[1]] for v in _UNITS]).T
    target = np.array([a11, a22, a12])
    sol, res = nnls(B, target)
    if not res <= 1e-10 * max(np.linalg.norm(target), 1.0):
        raise MonotonicityError(
            f"coefficient matrix {A.tolist()} admits no nonnegative "
            "decomposition over the eight lattice directions"
        )
    return sol


def _operator_weights(op, nodes: np.ndarray):
    """Direction weights of every policy and the Bellman sense ("min"/"max").

    The weights over _DIRECTIONS have shape (n_policies, m or 1, 8): one row
    per node for a coefficient field, one shared row for constant
    coefficients.  Each distinct coefficient matrix is decomposed once.
    """
    sense = "min"
    if isinstance(op, LaplaceOp):
        mats = np.eye(2)[None, None]
    elif isinstance(op, FixedOp):
        A = np.asarray(op.A(nodes), dtype=float)
        if A.shape not in ((2, 2), (len(nodes), 2, 2)):
            raise DomainError(f"FixedOp.A returned shape {A.shape} on {len(nodes)} nodes; "
                              f"it must return (2, 2) or ({len(nodes)}, 2, 2)")
        A = A.reshape(-1, 2, 2)
        bad = np.argwhere(~np.isfinite(A))
        if bad.size:
            k, i, j = bad[0]
            raise DomainError(f"A({nodes[k]}) has the non-finite entry A[{i}][{j}] = {A[k, i, j]}")
        if op.E is not None:
            ev = sym_eigvals(A)
            lo, hi = op.E.lam - 1e-10, op.E.Lam + 1e-10
            # written so that a NaN eigenvalue fails it
            bad = np.nonzero(~((lo <= ev[:, 0]) & (ev[:, -1] <= hi)))[0]
            if bad.size:
                k = bad[0]
                raise DomainError(
                    f"A({nodes[k]}) has eigenvalues {ev[k]} outside "
                    f"[{op.E.lam}, {op.E.Lam}]"
                )
        mats = A[None]
    elif isinstance(op, PucciOp):
        # lam I, then the two mixed extremal matrices of each orthogonal
        # frame (v, w), with Lam I after the first; lam = Lam leaves lam I
        lam, Lam = op.E.lam, op.E.Lam
        pols = [lam * np.eye(2)]
        if not op.E.is_laplacian:
            pols += [a * np.outer(v, v) + b * np.outer(w, w)
                     for v, w in zip(_UNITS[::2], _UNITS[1::2])
                     for a, b in ((lam, Lam), (Lam, lam))]
            pols.insert(3, Lam * np.eye(2))
        mats = np.stack(pols)[:, None]
        sense = "min" if op.sign == "minus" else "max"
    else:
        raise DomainError(f"unknown operator {op!r}")
    distinct, inverse = np.unique(mats.reshape(-1, 4), axis=0, return_inverse=True)
    alphas = np.stack([_decompose_spd(a.reshape(2, 2)) for a in distinct])
    return alphas[inverse.ravel()].reshape(mats.shape[:2] + (len(_DIRECTIONS),)), sense


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

    def transfer(self, pts: np.ndarray):
        """interpolate's build step: each point's corner ids into [u; fill
        values], (k, 4), for (i, j), (i+1, j), (i, j+1), (i+1, j+1); their
        bilinear weights, (4, k); and the grid indices of the distinct
        non-interior corners, (f, 2).  All are in grid units, so on a
        dilation-invariant graph one transfer serves every dilated grid."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xs, h, n = self._xs, self.h, len(self._xs)
        fi = (pts[:, 0] - xs[0]) / h
        fj = (pts[:, 1] - xs[0]) / h
        i = np.clip(np.floor(fi).astype(int), 0, n - 2)
        j = np.clip(np.floor(fj).astype(int), 0, n - 2)
        tx = fi - i
        ty = fj - j
        ci = i[:, None] + np.array([0, 1, 0, 1])
        cj = j[:, None] + np.array([0, 0, 1, 1])
        ids = self._ids[ci, cj]
        outer = ids < 0
        flat, back = np.unique(ci[outer] * n + cj[outer], return_inverse=True)
        ids[outer] = len(self.values) + back
        weights = np.stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])
        return ids, weights, np.stack(np.divmod(flat, n), axis=-1)

    def gather(self, transfer, fill: Callable) -> np.ndarray:
        """interpolate's apply step, w0 c0 + w1 c1 + w2 c2 + w3 c3, with fill
        called once on the non-interior corners, if there are any."""
        ids, weights, corners = transfer
        c = self.values
        if len(corners):
            c = np.concatenate([c, np.asarray(fill(self._xs[corners]), dtype=float)])
        c = c[ids]
        return (weights[0] * c[:, 0] + weights[1] * c[:, 1]
                + weights[2] * c[:, 2] + weights[3] * c[:, 3])

    def interpolate(self, pts: np.ndarray, fill: Callable) -> np.ndarray:
        """Bilinear interpolation from the four surrounding grid nodes.

        Non-interior corners take the values of fill, a vectorized callable
        evaluated once on the distinct non-interior corners of the touched
        cells: one transfer, then one gather.
        """
        return self.gather(self.transfer(pts), fill)


def discretize(problem: GridProblem) -> _DiscreteSystem:
    """Assemble the stacked monotone difference operator of problem."""
    return _DiscreteSystem(problem)


def _linear_solve(A, lu, c, diag, f):
    """Solve A u = f - c with the LU factors lu of A; u and its residual in
    node units (over diag, the absolute diagonal of A)."""
    rhs = f - c
    u = lu.solve(rhs)
    return u, float(np.max(np.abs(A @ u - rhs) / diag))


def solve(problem: GridProblem, system: Optional[_DiscreteSystem] = None) -> GridSolution:
    """Solve the discrete problem by policy iteration; deterministic given the problem.

    Each round solves the frozen-policy linear system (one solve with the
    sparse LU of _DiscreteSystem.frozen_matrix, diagonal pivots, no
    refinement), then selects the optimal policy per node; the loop stops
    once the policy is stationary.  A single policy (a linear operator, or
    Pucci with lam = Lam) is optimal everywhere, so its solve ends after the
    first linear solve, with no selection.  The final residual must be at
    most 1e-10 (max|g| + r^2 max|f|), the scale of u itself, with no
    absolute floor: zero data give u = 0 and residual 0.  system, if given,
    must be discretize(problem) or a system dilated onto problem.
    """
    sys_ = discretize(problem) if system is None else system
    f_problem = _values_at(problem.rhs, sys_.nodes, "rhs")
    # the linear solves run in the system's units: rhs / unit is exact
    f = f_problem / sys_.unit
    g_scale = float(np.abs(sys_.boundary_values).max()) if sys_.boundary_values.size else 0.0
    tol = 1e-10 * (g_scale + problem.r**2 * float(np.abs(f_problem).max()))

    alphas = sys_.alphas
    # a read-only view: constant coefficients keep their one shared row
    per_node = np.broadcast_to(alphas, (len(alphas), sys_.m, alphas.shape[2]))
    rows = np.arange(sys_.m)
    policy = np.zeros(sys_.m, dtype=int)
    for it in range(1, _MAX_POLICY_ROUNDS + 1):
        # a single policy needs no per-node gather of its weight rows
        alpha = per_node[0] if len(alphas) == 1 else per_node[policy, rows]
        # an uncached factor is freed before the next round builds its own
        u, res = _linear_solve(*sys_.frozen_matrix(alpha), f)
        new_policy = policy
        if len(alphas) > 1:
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
            # written so that a NaN residual fails it
            if not res <= tol:
                raise ConvergenceError(f"solve residual {res:g} exceeds {tol:g}")
            return GridSolution(problem, sys_, u, res, it, policy)
        policy = new_policy
    raise ConvergenceError(f"policy iteration did not settle in {_MAX_POLICY_ROUNDS} rounds")


@dataclass(frozen=True)
class ABPReport(Report):
    max_interior: float
    max_boundary: float
    forcing_norm: float           # discrete L^n norm of f^-
    diameter: float
    # empirical (max_u - max_g)/(diam * ||f^-||)
    bound_constant: float = field(metadata={"json": "empirical_C"})
    max_principle_exact: bool     # for f == 0: max attained on the boundary


def abp_check(solution: GridSolution) -> ABPReport:
    """Discrete maximum-principle / ABP report for a solved problem."""
    prob = solution.problem
    f = _values_at(prob.rhs, solution.nodes, "rhs")
    h = solution.h
    f_neg = np.minimum(f, 0.0)
    # the discrete L^n norm in n = 2 dimensions
    norm = float((np.sum(np.abs(f_neg) ** 2) * h**2) ** 0.5)
    max_u = float(solution.values.max())
    max_g = float(solution.boundary_values.max())
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
