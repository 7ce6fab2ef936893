"""Travelling-wave profiles of the lattice Allen-Cahn equation.

A horizontal front ``u_{i,j}(t) = Phi(i - c t)`` solves the lattice equation
iff ``(Phi, c)`` satisfies the mixed functional differential equation

    -c Phi'(xi) = Phi(xi+1) + Phi(xi-1) - 2 Phi(xi) + g(Phi(xi)),

with ``Phi(-inf) = 0``, ``Phi(+inf) = 1`` and the phase fixed by
``Phi(0) = 1/2``.  The equation is discretized by collocation on a uniform
grid over ``[-L, L]`` whose spacing divides 1, so the unit shifts are exact
index offsets, and the joint system in ``(Phi, c)`` is solved by damped
Newton.  ``Phi'`` uses central differences.  Every stencil operator is a
banded matrix stored by diagonals (``_Band``): no n x n dense array is
formed.  Every linear solve of the module (Newton steps, ``psi``, ``r`` and
``c_theta``) is such a matrix bordered by one row and one column (Keller
1977), solved on numpy alone by ``_bordered_solve``: block-tridiagonal
elimination with iterative refinement to a backward error at round-off.

Reads beyond the grid are closed with the linearized tail recurrence: a ghost
at distance ``m`` past an edge reads ``equilibrium + (edge - equilibrium) *
rho^m``, where ``rho`` is the decay ratio of the dominant tail mode at the
current speed.  The closure is affine in the edge unknowns, keeps the system
square, and avoids the lattice-scale boundary wiggles a hard equilibrium
clamp would inject at the tail amplitude; with it the discrete profile is
strictly monotone.

On top of the profile the module computes:

* ``psi``, the positive kernel element of the adjoint linearization
  ``-c psi' + psi(.+1) + psi(.-1) - 2 psi + g'(Phi) psi = 0``, discretized
  with the same stencils and its own tail closure and normalized so
  ``<psi, Phi'> = 1``;
* the drift coefficient ``d = -<Phi'', psi>`` governing the curvature
  response of the front;
* the corrector ``r`` solving ``L r + d Phi' = -Phi''`` with ``<psi, r> = 0``;
* oblique speeds ``c_theta`` for propagation directions tilted by ``theta``
  (off-grid shifts by cubic interpolation) and the normal-speed map
  ``dispersion(theta) = c_theta / cos(theta)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .core import BistableNonlinearity, CubicSpline
from .errors import (
    DegenerateKernel,
    NewtonDiverged,
    OutOfRange,
    PinningDetected,
    SolveFailed,
)

__all__ = [
    "WaveProfile",
    "solve_wave",
    "mfde_residual",
    "adjoint_solve",
    "compute_d",
    "solve_r",
    "c_theta",
    "dispersion",
    "phi_inverse",
    "save_wave",
    "load_wave",
]

THETA_MAX = 0.3
_PINNING_SPEED = 1e-4

# 6th-order central first derivative, 4th-order central second derivative
_D1_COEF = (45.0 / 60.0, -9.0 / 60.0, 1.0 / 60.0)
_D2_COEF = (16.0 / 12.0, -1.0 / 12.0)
_D2_DIAG = -30.0 / 12.0


def _check_grid(L: float, h: float) -> int:
    """Half-width ``L / h`` in grid cells, after validating ``L`` and ``h``."""
    if not (math.isfinite(L) and math.isfinite(h) and h > 0.0):
        raise ValueError(f"L must be finite and h positive and finite, got L={L}, h={h}")
    s = 1.0 / h
    if abs(s - round(s)) > 1e-9:
        raise ValueError(f"1/h must be an integer, got h={h}")
    n_half = L / h
    if abs(n_half - round(n_half)) > 1e-9:
        raise ValueError(f"L must be a multiple of h, got L={L}, h={h}")
    if L < 2.0:
        raise ValueError("half-width L must be at least 2")
    return int(round(n_half))


def _deriv_pieces(h: float) -> list[tuple[int, float]]:
    return [(s * off, s * coef / h)
            for off, coef in enumerate(_D1_COEF, start=1) for s in (1, -1)]


def _second_deriv_pieces(h: float) -> list[tuple[int, float]]:
    return [(0, _D2_DIAG / (h * h))] + [
        (s * off, coef / (h * h)) for off, coef in enumerate(_D2_COEF, start=1) for s in (1, -1)]


def _interp_pieces(offset: float, h: float) -> list[tuple[int, float]]:
    """Grid-index pieces sampling ``x -> Phi(x + offset)``.

    Integer offsets (in grid units) are exact index shifts; fractional ones
    use 4-point cubic Lagrange interpolation.
    """
    p = offset / h
    m = math.floor(p + 0.5)
    if abs(p - m) < 1e-12:
        return [(m, 1.0)]
    m = math.floor(p)
    f = p - m
    return [
        (m - 1, -f * (f - 1.0) * (f - 2.0) / 6.0),
        (m, (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0),
        (m + 1, -f * (f + 1.0) * (f - 2.0) / 2.0),
        (m + 2, f * (f + 1.0) * (f - 1.0) / 6.0),
    ]


class _Band:
    """Square matrix stored by diagonals: ``data[k, i]`` is the entry in row
    ``i`` and column ``i + k - width``, for ``width = (len(data) - 1) // 2``.
    Slots whose column lies off the matrix hold 0."""

    def __init__(self, data: np.ndarray):
        self.data = data
        self.width = (data.shape[0] - 1) // 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with the vector ``x``; each row sums its slots in
        column order.  The sum over the first axis adds whole rows in turn,
        from ``-0.0``, the one start that keeps a sum of ``-0.0`` terms
        ``-0.0``."""
        n, w = self.data.shape[1], self.width
        xp = np.zeros(n + 2 * w)
        xp[w:w + n] = x
        terms = self.data * np.lib.stride_tricks.sliding_window_view(xp, n)
        return terms.sum(axis=0, initial=-0.0)


def _stencil_affine(n: int, pieces: Sequence[tuple[int, float]],
                    rho_l: float, rho_r: float, right_target: float = 1.0,
                    width: Optional[int] = None) -> tuple[_Band, np.ndarray]:
    """Banded matrix and constant part of an affine stencil with tail closure.

    A read at column ``-m`` (left ghost) resolves to ``Phi_0 * rho_l^m``; a
    read at ``n-1+m`` resolves to ``e + (Phi_{n-1} - e) * rho_r^m`` where
    ``e`` is the right equilibrium (1 for the profile, 0 for the adjoint).
    Every resolved read stays within the largest piece offset of its row, so
    the matrix has that bandwidth; ``width`` (at least it) sets the stored
    one.  Each entry sums its reads in piece order, as one dense pass per
    piece would.
    """
    offs, wgts = zip(*pieces)
    if width is None:
        width = max(abs(off) for off in offs)
    wgt = np.array(wgts, dtype=float)[:, None]
    cols = np.arange(n) + np.array(offs)[:, None]
    rows = np.broadcast_to(np.arange(n), cols.shape)
    edge = np.clip(cols, 0, n - 1)
    # the distance past the edge is 0 inside the grid, where rho^0 = 1;
    # np.bincount sums each entry in piece order
    decay = np.where(cols < 0, rho_l, rho_r) ** np.abs(cols - edge)
    slot = (edge - rows + width) * n + rows
    data = np.bincount(slot.ravel(), weights=(wgt * decay).ravel(),
                       minlength=(2 * width + 1) * n).reshape(2 * width + 1, n)
    right = cols > n - 1
    b = np.bincount(rows[right], weights=(wgt * right_target * (1.0 - decay))[right],
                    minlength=n)
    return _Band(data), b


def _tail_rate(f: BistableNonlinearity, c: float, shifts: Sequence[float],
               h: float, side: str) -> float:
    """Per-index decay ratio ``rho = exp(-lambda h)`` of the dominant tail mode.

    ``lambda`` is the smallest positive root of the linearized characteristic
    equation ``chi(lambda) = 0`` at the approached equilibrium (0 on the
    left, 1 on the right).  No decaying tail mode, ``chi(1e-8) >= 0`` or no
    sign change bracketed below 64, raises :class:`SolveFailed`.  Else Newton
    with the analytic ``chi'`` runs inside the bracket ``[lo, hi]`` with
    ``chi(lo) < 0 <= chi(hi)``: a step that leaves it, or a slope that
    is not positive, bisects it instead.  It stops once a step moves
    ``lambda`` by at most 4 ulp or the bracket is that narrow.
    """
    gp = f.dg(0.0) if side == "left" else f.dg(1.0)
    sgn = 1.0 if side == "left" else -1.0

    offs = range(1, len(_D1_COEF) + 1)

    def chi(lam: float) -> tuple[float, float]:
        """``chi(lam)`` and ``chi'(lam)``."""
        mu = sgn * lam
        ep = [math.exp(mu * h * off) for off in offs]
        em = [math.exp(-mu * h * off) for off in offs]
        es = [math.exp(mu * alpha) for alpha in shifts]
        deriv = sum(coef * (p - m) for coef, p, m in zip(_D1_COEF, ep, em)) * c / h
        slope = (c * sum(coef * off * (p + m) for coef, off, p, m in zip(_D1_COEF, offs, ep, em))
                 + sum(alpha * e for alpha, e in zip(shifts, es)))
        return deriv + (sum(es) - len(shifts)) + gp, sgn * slope

    lo = 1e-8
    if chi(lo)[0] >= 0.0:
        raise SolveFailed(f"no decaying tail mode on the {side} at c={c:g} "
                          "with a rate above 1e-8")
    hi = 0.25
    while chi(hi)[0] < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 64.0:
            raise SolveFailed(f"no decaying tail mode on the {side} at c={c:g} "
                              "with a rate below 64")
    lam = hi
    for _ in range(100):
        val, slope = chi(lam)
        if val < 0.0:
            lo = lam
        else:
            hi = lam
        new = lam - val / slope if slope > 0.0 else math.nan
        if not lo <= new <= hi:  # NaN included
            new = 0.5 * (lo + hi)
        done = abs(new - lam) <= 4.0 * math.ulp(lam) or hi - lo <= 4.0 * math.ulp(hi)
        lam = new
        if done:
            break
    return math.exp(-lam * h)


class _System:
    """Discretized travelling-wave system for a fixed shift set and right
    tail target (1 for the profile, 0 for the adjoint).  Its operators share
    one stored bandwidth, the largest offset of their pieces."""

    def __init__(self, f: BistableNonlinearity, n: int, h: float,
                 shifts: Sequence[float], right_target: float = 1.0):
        self.f = f
        self.n = n
        self.h = h
        self.shifts = tuple(shifts)
        self.right_target = right_target
        self.shift_pieces = [piece for alpha in self.shifts for piece in _interp_pieces(alpha, h)]
        self.shift_pieces.append((0, -float(len(self.shifts))))
        self.width = max(abs(off) for off, _ in self.shift_pieces + _deriv_pieces(h))

    def build(self, c: float, rho: Optional[tuple[float, float]] = None):
        if rho is None:
            rho = (_tail_rate(self.f, c, self.shifts, self.h, "left"),
                   _tail_rate(self.f, c, self.shifts, self.h, "right"))
        self.rho = rho
        tails = (*rho, self.right_target, self.width)
        self.D, self.bD = _stencil_affine(self.n, _deriv_pieces(self.h), *tails)
        self.S, self.bS = _stencil_affine(self.n, self.shift_pieces, *tails)

    def residual(self, phi: np.ndarray, c: float) -> np.ndarray:
        return c * (self.D @ phi + self.bD) + self.S @ phi + self.bS + self.f(phi)

    def jacobian(self, phi: np.ndarray, c: float) -> _Band:
        data = c * self.D.data + self.S.data
        data[self.width] += self.f.dg(phi)
        return _Band(data)


_EPS = np.finfo(float).eps


def _bordered_solve(A: _Band, col: np.ndarray, row: np.ndarray,
                    rhs: np.ndarray, singular: Exception) -> np.ndarray:
    """Solution of the bordered system ``B x = [[A, col], [row, 0]] x = rhs``.

    Block-tridiagonal elimination with blocks as wide as the bandwidth of
    ``A`` (``_BorderedBand``), then iterative refinement on the banded
    residual, since the elimination does not pivot between blocks (Skeel,
    Math. Comp. 35, 1980).  It follows LAPACK ``dgerfs``'s stopping rule:
    ``x`` is corrected while the normwise backward error
    ``|rhs - B x| / (|B| |x| + |rhs|)`` (sup-norms) is above eps and at most
    half the previous one, at most 5 times.  Raises ``singular`` when a
    pivot block is exactly singular or the backward error ends above 8 eps.
    """
    norm_b = max((np.abs(A.data).sum(axis=0) + np.abs(col)).max(), np.abs(row).sum())
    norm_rhs = np.abs(rhs).max()
    # a non-finite solution fails the backward-error gate; it need not warn
    with np.errstate(all="ignore"):
        try:
            solver = _BorderedBand(A, col, row)
            x = solver.solve(rhs)
            previous = math.inf
            for step in range(6):
                res = np.append(rhs[:-1] - (A @ x[:-1] + col * x[-1]), rhs[-1] - row @ x[:-1])
                err = np.abs(res).max()
                omega = err / (norm_b * np.abs(x).max() + norm_rhs) if err else 0.0
                if not (omega > _EPS and 2.0 * omega <= previous and step < 5):
                    break
                x = x + solver.solve(res)
                previous = omega
        except np.linalg.LinAlgError:
            raise singular from None
    if not omega <= 8.0 * _EPS:
        raise singular
    return x


class _BorderedBand:
    """The block elimination of ``[[A, col], [row, 0]]`` for
    :func:`_bordered_solve`, kept to solve one right-hand side after another.

    Identity rows pad ``A`` to ``K`` whole blocks of ``m`` rows, ``m`` no less
    than its bandwidth, so block row ``k`` couples only to its neighbours:
    ``A_k,k-1``, ``A_k,k`` and ``A_k,k+1``.  The elimination meets the Schur
    complements ``S_k = A_k,k - A_k,k-1 S_k-1^-1 A_k-1,k`` as its diagonal
    blocks; one ``np.linalg.solve`` with each gives ``S_k^-1`` applied to
    ``A_k,k+1``, to the border column and to the identity.  The border row
    is eliminated alongside, and the last block with the border forms one
    pivoted dense system.
    """

    def __init__(self, A: _Band, col: np.ndarray, row: np.ndarray):
        n, w = col.size, A.width
        m = max(w, 1)
        K = -(-n // m)
        data = np.zeros((2 * w + 1, K * m))
        data[:, :n] = A.data
        data[w, n:] = 1.0
        # the rows of block k over the columns of blocks k - 1 .. k + 1: entry
        # (k, i, i + j + m - w) of ``strips`` is diagonal j of row k m + i
        strips = np.zeros((K, m, 3 * m))
        i = np.arange(m)[:, None]
        strips[:, i, i + np.arange(2 * w + 1) + m - w] = data.T.reshape(K, m, 2 * w + 1)
        col, row = (np.append(v, np.zeros(K * m - n)).reshape(K, m) for v in (col, row))
        self.n, self.low = n, strips[1:, :, :m]
        self.inv, self.up, self.col, self.row = [], [], [], []
        eye = np.eye(m)
        col_k, row_k, corner = col[0], row[0], 0.0
        for k in range(K):
            block = strips[k, :, m:2 * m]
            if k > 0:
                block -= self.low[k - 1] @ self.up[-1]
                col_k = col[k] - self.low[k - 1] @ self.col[-1]
                row_k = row[k] - self.row[-1] @ self.up[-1]
                corner -= self.row[-1] @ self.col[-1]
            if k == K - 1:
                break
            solved = np.linalg.solve(block, np.column_stack((strips[k, :, 2 * m:], col_k, eye)))
            self.up.append(solved[:, :m])
            self.col.append(solved[:, m])
            self.inv.append(solved[:, m + 1:])
            self.row.append(row_k)
        self.last = np.block([[block, col_k[:, None]], [row_k[None, :], np.array([[corner]])]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution for the right-hand side ``rhs`` (``n + 1`` entries)."""
        K, m = self.low.shape[0] + 1, self.last.shape[0] - 1
        b = np.append(rhs[:-1], np.zeros(K * m - self.n)).reshape(K, m)
        ys = []
        b_k, beta = b[0], rhs[-1]
        for k, inv in enumerate(self.inv):
            ys.append(inv @ b_k)
            beta = beta - self.row[k] @ ys[k]
            b_k = b[k + 1] - self.low[k] @ ys[k]
        x = np.empty((K, m))
        tail = np.linalg.solve(self.last, np.append(b_k, beta))
        x[-1], xb = tail[:-1], tail[-1]
        for k in range(K - 2, -1, -1):
            x[k] = ys[k] - self.up[k] @ x[k + 1] - self.col[k] * xb
        return np.append(x.ravel()[:self.n], xb)


def _newton(sys: _System, k0: int, phi0: np.ndarray, c0: float):
    """Damped Newton on the joint system (collocation rows + phase row), at
    most 60 steps, stopping once the sup-norm residual is below 1e-11.

    The tail-closure rates are refreshed from the current speed while the
    iteration is far from convergence and frozen afterwards, so the final
    iterations solve a fixed square system exactly.
    """
    phi = phi0.copy()
    c = float(c0)
    n = phi.size
    phase_row = (np.arange(n) == k0).astype(float)
    freeze = False
    sys.build(c)
    F = sys.residual(phi, c)
    phase = phi[k0] - 0.5
    norm = max(np.max(np.abs(F)), abs(phase))
    for _ in range(60):
        if norm < 1e-11:
            break
        step = _bordered_solve(sys.jacobian(phi, c), sys.D @ phi + sys.bD, phase_row,
                               np.append(-F, -phase),
                               NewtonDiverged("singular Newton system"))
        lam = 1.0
        improved = False
        while lam >= 1.0 / 1024.0:
            trial_phi = phi + lam * step[:n]
            trial_c = c + lam * step[n]
            if not freeze:
                sys.build(trial_c)
            Ft = sys.residual(trial_phi, trial_c)
            pt = trial_phi[k0] - 0.5
            nt = max(np.max(np.abs(Ft)), abs(pt)) if np.all(np.isfinite(Ft)) else np.inf
            if nt < (1.0 - 0.25 * lam) * norm or nt < 1e-11:
                phi, c, F, phase, norm = trial_phi, trial_c, Ft, pt, nt
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        # the system last built, at the accepted speed, is the one frozen
        freeze = freeze or norm < 1e-6
    return phi, c, norm


@dataclass
class WaveProfile:
    """A solved travelling-wave profile and the objects derived from it."""

    f: BistableNonlinearity
    L: float
    h: float
    xi: np.ndarray
    phi: np.ndarray
    c: float
    rho: tuple[float, float]
    psi: Optional[np.ndarray] = None
    d: Optional[float] = None
    r: Optional[np.ndarray] = None
    _c_theta_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # built from phi and r on every construction, dataclasses.replace included
    _phi_spline: CubicSpline = field(init=False, repr=False, compare=False)
    _r_spline: Optional[CubicSpline] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self._phi_spline = CubicSpline(self.xi, self.phi)
        self._r_spline = None if self.r is None else CubicSpline(self.xi, self.r)

    @property
    def a(self) -> float:
        return self.f.a

    @property
    def n(self) -> int:
        return self.xi.size

    def _system(self) -> _System:
        sys = _System(self.f, self.n, self.h, (1.0, -1.0))
        sys.build(self.c, self.rho)
        return sys

    def phi_prime_grid(self) -> np.ndarray:
        sys = self._system()
        return sys.D @ self.phi + sys.bD

    def phi_second_grid(self) -> np.ndarray:
        D2, b2 = _stencil_affine(self.n, _second_deriv_pieces(self.h), *self.rho)
        return D2 @ self.phi + b2

    def linearization(self) -> _Band:
        """Forward linearization around the profile (tail closure included),
        as a banded matrix stored by diagonals."""
        return self._system().jacobian(self.phi, self.c)

    def _weights(self) -> np.ndarray:
        """Trapezoid weights of the pairing on the collocation grid."""
        wts = np.full(self.n, self.h)
        wts[[0, -1]] *= 0.5
        return wts

    def pairing(self, u: np.ndarray, v: np.ndarray) -> float:
        """Trapezoid pairing ``<u, v>`` on the collocation grid."""
        return float(np.sum(self._weights() * u * v))

    def _evaluate(self, spline: CubicSpline, x, nu: int, tails):
        """Derivative ``nu`` (0 or 1) of a grid function: ``spline`` on the grid,
        past each edge the tail ``eq + amp * exp(-lam * distance)`` of ``tails``
        (left then right, ``sign = -d distance/dx``, so the exponent is
        ``sign * lam * (x - edge)``); zero when ``tails`` is None.
        The spline call, made for every ``x``, refuses any other ``nu``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        left = x < self.xi[0]
        right = x > self.xi[-1]
        for side, edge, tail in zip((left, right), (self.xi[0], self.xi[-1]), tails or ()):
            if side.any():
                eq, amp, lam, sign = tail
                rate = sign * lam  # lam > 0 and finite
                tail_val = rate ** nu * amp * np.exp(rate * (x[side] - edge))
                out[side] = tail_val + eq if nu == 0 else tail_val
        mid = ~(left | right)
        out[mid] = spline(x[mid], nu)
        return float(out) if out.ndim == 0 else out

    def phi_at(self, x, nu: int = 0):
        """Profile ``Phi`` (``nu=0``) or ``Phi'`` (``nu=1``) at arbitrary points.

        Inside the grid this is the cubic-spline interpolant; outside it
        follows the exponential tail model continuously into the equilibria,
        at the rate ``-log(rho) / h`` of each tail's decay ratio in (0, 1).
        """
        lam_l, lam_r = (-math.log(rho) / self.h for rho in self.rho)
        return self._evaluate(self._phi_spline, x, nu,
                              ((0.0, self.phi[0], lam_l, 1.0),
                               (1.0, self.phi[-1] - 1.0, lam_r, -1.0)))

    def r_at(self, x, nu: int = 0):
        """Corrector ``r`` (``nu=0``) or ``r'`` (``nu=1``); zero outside the grid."""
        if self.r is None:
            raise SolveFailed("corrector r has not been solved")
        return self._evaluate(self._r_spline, x, nu, None)


def solve_wave(f: BistableNonlinearity, L: float = 20.0,
               h: float = 1.0 / 16.0) -> WaveProfile:
    """Solve the travelling-wave system for ``(Phi, c)`` by Newton from the
    logistic ``1 / (1 + e^{-xi/sqrt 2})`` at speed ``sqrt(2) (a - 1/2)``.

    Raises :class:`PinningDetected` when the speed falls below the pinning
    threshold ``_PINNING_SPEED = 1e-4`` (the front fails to propagate, so no
    wave with ``c != 0`` exists) and :class:`NewtonDiverged` when damped
    Newton stalls or the profile ends more than 1e-3 from the equilibria.
    """
    n_half = _check_grid(L, h)
    n = 2 * n_half + 1
    xi = (np.arange(n) - n_half) * h
    k0 = n_half

    phi0 = 1.0 / (1.0 + np.exp(-xi / math.sqrt(2.0)))
    c0 = math.sqrt(2.0) * (f.a - 0.5)

    sys = _System(f, n, h, (1.0, -1.0))
    phi, c, norm = _newton(sys, k0, phi0, c0)
    if not norm < 1e-9:
        if abs(c) < _PINNING_SPEED:
            raise PinningDetected(
                f"Newton stalled with |c|={abs(c):.2e} below the pinning threshold")
        raise NewtonDiverged(f"residual stalled at {norm:.3e}")
    if abs(c) < _PINNING_SPEED:
        raise PinningDetected(
            f"converged speed |c|={abs(c):.2e} below threshold {_PINNING_SPEED:g}; "
            "the front is pinned")
    if np.any(np.diff(phi) <= 0.0):
        raise NewtonDiverged("converged profile is not strictly increasing")
    if abs(phi[0]) > 1e-3 or abs(phi[-1] - 1.0) > 1e-3:
        raise NewtonDiverged(
            "profile does not reach the equilibria at the grid ends; increase L")
    return WaveProfile(f=f, L=float(L), h=float(h), xi=xi, phi=phi, c=c, rho=sys.rho)


def mfde_residual(w: WaveProfile) -> np.ndarray:
    """Residual of the travelling-wave equation at ``(w.phi, w.c)`` on the
    collocation grid, using the same derivative stencil and tail closure as
    the solver."""
    return w._system().residual(w.phi, w.c)


def adjoint_solve(w: WaveProfile) -> np.ndarray:
    """Kernel element of the adjoint linearization, positive and normalized.

    The adjoint of ``L u = c u' + u(.+1) + u(.-1) - 2 u + g'(Phi) u`` flips
    the sign of the derivative term.  It is discretized with the same
    stencils, with tail closure rates taken from the adjoint characteristic
    equation; the adjoint kernel decays to 0 on both sides, so the closure
    has no affine part.

    ``psi`` solves ``[[A, Phi'], [(W Phi')^T, 0]] [psi; lam] = [0; 1]``, with
    ``W`` the trapezoid weights, so ``<psi, Phi'> = 1``; the bordered matrix
    is nonsingular exactly when ker A is simple and transverse to ``Phi'``
    (Keller 1977).  Raises :class:`DegenerateKernel` when it is singular,
    when ``|A psi| > 1e-12 |A| |psi|`` in sup-norms, or when ``psi`` is not
    strictly positive.  The ratio measures the tail truncation.  At
    ``h = 1/16`` it is at most 4e-14 on ``L = 20`` for ``a`` from 0.02 to
    0.95, and 3.1e-9 at ``a = 0.3``, ``L = 10``, where ``d`` is off by
    1.7e-4; on the windows ``L = 8 .. 20`` with ``a`` from 0.05 to 0.95 that
    pass the gate, ``d`` is within 3.4e-6 of its ``L = 20`` value.
    """
    sys = _System(w.f, w.n, w.h, (1.0, -1.0), right_target=0.0)
    sys.build(-w.c)
    A = sys.jacobian(w.phi, -w.c)
    dphi = w.phi_prime_grid()
    psi = _bordered_solve(A, dphi, w._weights() * dphi, np.append(np.zeros(w.n), 1.0),
                          DegenerateKernel("kernel is not simple or not transverse"))[:w.n]
    ratio = np.max(np.abs(A @ psi)) / (np.abs(A.data).sum(axis=0).max() * np.max(np.abs(psi)))
    if not ratio <= 1e-12:
        raise DegenerateKernel(f"adjoint residual ratio {ratio:.3e} is above 1e-12; "
                               "psi is not a kernel element, or L is too short "
                               "for the tails")
    if not np.all(psi > 0.0):
        raise DegenerateKernel("adjoint kernel element is not strictly positive")
    w.psi = psi
    return psi


def compute_d(w: WaveProfile) -> float:
    """Drift coefficient ``d = -<Phi'', psi>`` (trapezoid pairing)."""
    if w.psi is None:
        adjoint_solve(w)
    w.d = -w.pairing(w.phi_second_grid(), w.psi)
    return w.d


def solve_r(w: WaveProfile) -> np.ndarray:
    """Corrector ``r`` with ``L r = -Phi'' - d Phi'`` and ``<psi, r> = 0``.

    One solve of the bordered system ``[[L, psi], [psi^T W, 0]]``, where
    ``W`` holds the trapezoid weights of the pairing.  The border makes the
    singular ``L`` invertible (its kernel ``Phi'`` pairs to 1 with ``psi``),
    and the right-hand side is solvable by construction of ``d``, so the
    border multiplier vanishes up to the residual check (sup-norm < 1e-7).
    Solves ``psi`` and ``d`` first when they are missing.
    """
    if w.psi is None or w.d is None:
        compute_d(w)
    rhs = -w.phi_second_grid() - w.d * w.phi_prime_grid()
    A = w.linearization()
    r = _bordered_solve(A, w.psi, w._weights() * w.psi, np.append(rhs, 0.0),
                        SolveFailed("bordered corrector system is singular"))[:w.n]
    res = np.max(np.abs(A @ r - rhs))
    if not res < 1e-7:
        raise SolveFailed(f"corrector residual {res:.3e} above 1e-07")
    w.r = r
    w._r_spline = CubicSpline(w.xi, r)
    return r


def c_theta(w: WaveProfile, theta: float) -> float:
    """Wave speed for propagation direction tilted by ``theta`` (radians).

    Off-grid shifts ``cos(theta)``, ``sin(theta)`` are applied by cubic
    interpolation on the collocation grid.  Only small tilts are supported.
    """
    if not abs(theta) <= THETA_MAX + 1e-12:
        raise OutOfRange(f"|theta| must be <= {THETA_MAX}, got {theta}")
    key = round(float(theta), 15)
    if key in w._c_theta_cache:
        return w._c_theta_cache[key]
    shifts = (math.cos(theta), math.sin(theta), -math.cos(theta), -math.sin(theta))
    sys = _System(w.f, w.n, w.h, shifts)
    _, c, norm = _newton(sys, w.n // 2, w.phi, w.c)
    if not norm < 1e-7:
        raise NewtonDiverged(f"tilted-wave residual stalled at {norm:.3e}")
    w._c_theta_cache[key] = c
    return c


def dispersion(w: WaveProfile, theta: float) -> float:
    """Normal speed of a planar interface tilted by ``theta``:
    ``D(theta) = c_theta / cos(theta)``."""
    return c_theta(w, theta) / math.cos(theta)


def phi_inverse(w: WaveProfile, v):
    """Inverse of the profile: the ``xi`` with ``phi(xi) = v``.

    Safeguarded Newton on the cubic piece of the profile spline whose knot
    values bracket ``v``, evaluated by Horner steps from the spline's own
    coefficients.  The iteration starts from linear interpolation in the
    bracket; a step that leaves the bracket, or a slope that is not
    positive, falls back to bisection of the bracket.  An entry stops once
    its step moves ``xi`` by at most 1e-12, or after 64 rounds: the clamped
    spline is flat at ``+-L``, where Newton converges only linearly.  Each
    entry iterates on its own, so a vector call equals scalar calls bit for
    bit.  The result satisfies ``|phi(xi) - v| < 1e-12`` and has the shape
    of ``v``.  Raises :class:`OutOfRange` unless ``v`` lies strictly inside
    the represented range ``(phi(-L), phi(L))``.
    """
    v = np.asarray(v, dtype=float)
    shape = v.shape
    v = v.ravel()
    if not np.all((w.phi[0] < v) & (v < w.phi[-1])):
        raise OutOfRange("value outside the represented profile range")
    k = np.searchsorted(w.phi, v) - 1
    c3, c2, c1, c0 = w._phi_spline.c[:, k]
    d0 = c0 - v
    lo, hi = np.zeros_like(v), w.xi[k + 1] - w.xi[k]
    t = hi * (v - w.phi[k]) / (w.phi[k + 1] - w.phi[k])
    out = np.empty_like(v)
    active = np.arange(v.size)
    for _ in range(64):
        val = ((c3 * t + c2) * t + c1) * t + d0
        slope = (3.0 * c3 * t + 2.0 * c2) * t + c1
        below = val < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        new = t - np.divide(val, slope, out=np.full_like(t, np.inf), where=slope > 0.0)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        out[active] = new
        moving = np.abs(new - t) > 1e-12
        if not moving.any():
            break
        active, t, lo, hi, c3, c2, c1, d0 = (
            x[moving] for x in (active, new, lo, hi, c3, c2, c1, d0))
    out += w.xi[k]
    return float(out[0]) if not shape else out.reshape(shape)


def _fmt(values) -> str:
    return "[" + ", ".join(format(float(v), ".17g") for v in np.atleast_1d(values)) + "]"


def save_wave(w: WaveProfile, path: str) -> None:
    """Write the profile as NDJSON: one metadata record, then one record per
    array, with values rendered at 17 significant digits (round-trip exact)."""
    meta = {
        "type": "wave_profile",
        "a": format(w.a, ".17g"),
        "L": format(w.L, ".17g"),
        "h": format(w.h, ".17g"),
        "c": format(w.c, ".17g"),
        "rho_l": format(w.rho[0], ".17g"),
        "rho_r": format(w.rho[1], ".17g"),
    }
    if w.d is not None:
        meta["d"] = format(w.d, ".17g")
    lines = [json.dumps(meta)]
    lines.append('{"type": "array", "name": "phi", "values": %s}' % _fmt(w.phi))
    if w.psi is not None:
        lines.append('{"type": "array", "name": "psi", "values": %s}' % _fmt(w.psi))
    if w.r is not None:
        lines.append('{"type": "array", "name": "r", "values": %s}' % _fmt(w.r))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _field(record: dict, key: str, convert=lambda value: value):
    """``convert(record[key])``; a ``ValueError`` naming ``key`` when the key
    is missing or ``convert`` refuses its value."""
    if key not in record:
        raise ValueError(f"wave file has no field {key!r}")
    try:
        return convert(record[key])
    except (TypeError, ValueError):
        raise ValueError(f"wave field {key!r} is not numeric") from None


def load_wave(path: str) -> WaveProfile:
    """Read a profile written by :func:`save_wave`.

    Raises ``ValueError`` naming the file for any defect of its content, such
    as a grid array (``phi``, ``psi``, ``r``) without ``2 L / h + 1`` entries,
    a ``phi`` that is not strictly increasing, a ``kind`` other than
    ``"cubic"`` (files of the retired tabulated nonlinearity), a decay
    ratio ``rho_l``/``rho_r`` outside (0, 1) or a non-finite ``c`` or ``d``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_wave(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_wave(lines) -> WaveProfile:
    raw = {}
    meta = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"record {line[:40]!r} is not a JSON object")
        if rec.get("type") == "wave_profile":
            meta = rec
        elif rec.get("type") == "array":
            raw[_field(rec, "name", str)] = _field(rec, "values")
    if meta is None or "phi" not in raw:
        raise ValueError("file does not contain a wave profile")
    arrays = {key: _field(raw, key, partial(np.asarray, dtype=float)) for key in raw}

    if meta.get("kind", "cubic") != "cubic":
        raise ValueError(f"wave field 'kind' must be 'cubic', got {meta['kind']!r}")
    number = partial(_field, meta, convert=float)
    f = BistableNonlinearity(number("a"))
    rho = (number("rho_l"), number("rho_r"))
    for key, value in zip(("rho_l", "rho_r"), rho):
        if not 0.0 < value < 1.0:
            raise ValueError(f"wave field {key!r} must lie in (0, 1), got {value!r}")
    for key in ("c", "d"):
        if key in meta and not math.isfinite(number(key)):
            raise ValueError(f"wave field {key!r} must be finite, got {meta[key]!r}")
    L = number("L")
    h = number("h")
    n_half = _check_grid(L, h)
    n = 2 * n_half + 1
    for name in ("phi", "psi", "r"):
        if name in arrays and arrays[name].shape != (n,):
            raise ValueError(f"wave array {name!r} has shape {arrays[name].shape}, "
                             f"not ({n},) = 2 L / h + 1 entries")
    if not np.all(np.diff(arrays["phi"]) > 0.0):
        raise ValueError("wave array 'phi' is not strictly increasing")
    return WaveProfile(f=f, L=L, h=h, xi=(np.arange(n) - n_half) * h, phi=arrays["phi"],
                       c=number("c"), rho=rho,
                       psi=arrays.get("psi"), d=number("d") if "d" in meta else None,
                       r=arrays.get("r"))
