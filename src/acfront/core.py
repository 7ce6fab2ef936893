"""Lattice containers, the bistable cubic and discrete difference operators.

Everything here is binary64, and the public operators are side-effect free:
they return fresh arrays and never mutate their inputs (the private kernels
write into buffers their callers own).  Two boundary policies appear
throughout the package and are fixed at this level:

* in the horizontal (``i``) direction fields always use ``dirichlet_equilibria``
  ghosts: reads left of the window give the equilibrium 0, reads right of it
  give 1;
* in the vertical (``j``) direction either ``periodic`` (indices wrap) or
  ``reflect`` (the ghost equals the edge value, i.e. zero discrete flux).

The j-policy is a field of each container, and one ghost rule applies it:
``_fill_ghosts``, on the last axis of ``LatticeField.padded``,
``PhaseSequence.padded`` and the stage buffers of ``_ssprk104``, the one
time step of the lattice and of the phase flows, made of the forward-Euler
substeps ``_substep`` builds; the difference operators read those arrays.
Outside this module only ``flow.heat_solve`` reads the policy: it pads the
sequence by the kernel's nonzero half-width K, wrapped (``periodic``) or
mirrored (``reflect``, the even extension this ghost rule implies), and
forms the P outputs as direct sums, P·min(2K + 1, period) products with
period P or 2P; no FFT, whose round-off would swamp the e^{-500}-scale
Cole-Hopf values.

``BistableNonlinearity`` is the cubic ``g(u) = u (1 - u) (u - a)``, the
package's one reaction term.  ``CubicSpline`` is the package's one
interpolating spline, clamped at both ends: the profile and corrector of
``wave`` use it.  It solves its slope system by elimination without row
interchanges, which the system's diagonal dominance makes stable, in the
order of LAPACK ``dgtsv``, scipy's solver.  So wherever ``dgtsv`` takes no
interchange (every uniform spacing up to 1, the wave grids among them) it
equals the clamped ``scipy.interpolate.CubicSpline`` byte for byte, and
elsewhere to round-off, on numpy alone.  Importing scipy costs more than
the whole travelling-wave set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BistableNonlinearity",
    "CubicSpline",
    "LatticeField",
    "PhaseSequence",
    "d_plus",
    "d_minus",
    "d2",
    "alpha",
    "deviation_seminorm",
]

BOUNDARY_J = ("periodic", "reflect")


class CubicSpline:
    """C² cubic spline through ``(x, y)`` with clamped ends (zero end
    slopes), on at least 4 strictly increasing, finite knots.

    It is ``scipy.interpolate.CubicSpline`` restricted to 1-d data and
    clamped ends: the knot slopes solve scipy's tridiagonal system, ``c``
    holds its piecewise coefficients (``c[m, k]`` multiplies
    ``(x - x[k])**(3 - m)``), and a call sums the terms in scipy's order.
    The bytes equal scipy's wherever its ``dgtsv`` solve takes no row
    interchange, which needs ``x[2] - x[1] <= 1`` and holds on every
    uniform grid of spacing at most 1.  Points outside ``[x[0], x[-1]]``
    extrapolate the end pieces.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise ValueError("x and y must be equal-length 1d arrays of at least 4 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must contain only finite values")
        dx = np.diff(x)
        if np.any(dx <= 0.0):
            raise ValueError("x must be strictly increasing")
        slope = np.diff(y) / dx
        # scipy's system for the knot slopes s: s[0] = s[-1] = 0, and row
        # i = 1 .. n-2 reads dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i]
        # + dx[i-1] s[i+1] = b[i-1]; d[k], b[k] and sup[k] belong to row
        # k + 1, sub[k] to row k + 2, whose first entry row k + 1 eliminates
        d = (2 * (dx[:-1] + dx[1:])).tolist()
        b = (3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist()
        sub, sup = dx[2:].tolist(), dx[:-2].tolist()
        # Thomas elimination, in dgtsv's order without its interchanges: each
        # diagonal is twice the sum of its row's off-diagonals, so this is stable
        for k in range(len(d) - 1):
            fact = sub[k] / d[k]
            d[k + 1] = d[k + 1] - fact * sup[k]
            b[k + 1] = b[k + 1] - fact * b[k]
        s = [0.0] * x.size
        s[-2] = b[-1] / d[-1]
        for k in range(len(d) - 2, -1, -1):
            # dgtsv's eliminated entry, a zero whose product can turn -0 to +0
            s[k + 1] = (b[k] - sup[k] * s[k + 2] - 0.0 * s[k + 3]) / d[k]
        s = np.array(s)
        # Hermite data (y, s) to power-basis coefficients per interval
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, x, nu: int = 0):
        """Value (``nu=0``) or first derivative (``nu=1``) at ``x``, any shape.

        A point lies in the interval ``x[k] <= x < x[k+1]``, the last one
        closed and the end ones extended.  With ``s = x - x[k]`` the value
        is ``c3 + c2 s + c1 s² + c0 s³`` and the derivative
        ``c2 + (c1 s) 2 + (c0 s²) 3``, summed left to right; the closing
        ``+ 0.0`` turns ``-0.0`` into ``+0.0``, as scipy sums from ``+0.0``.
        """
        if nu not in (0, 1):
            raise ValueError(f"derivative order nu must be 0 or 1, got {nu!r}")
        x = np.asarray(x, dtype=float)
        # interval index: the number of interior knots at or left of x
        k = np.searchsorted(self.x[1:-1], x, side="right")
        c0, c1, c2, c3 = self.c.take(k, axis=1)
        s = x - self.x.take(k)
        if nu == 0:
            out = c2 * s
            out += c3
            s2 = s * s
            c1 *= s2
            out += c1
            s2 *= s
            s2 *= c0
            out += s2
        else:
            out = c1 * s
            out *= 2.0
            out += c2
            s *= s
            s *= c0
            s *= 3.0
            out += s
        out += 0.0
        return out


@dataclass(frozen=True)
class BistableNonlinearity:
    """The bistable cubic ``g(u) = u (1 - u) (u - a)``: stable zeros 0 and 1,
    unstable zero ``a`` in (0, 1)."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"detuning a must lie in (0, 1), got {self.a}")

    def __call__(self, u):
        """Evaluate ``g(u)`` elementwise, factored as ``((1 - u) u) (u - a)``
        so its three zeros are exact."""
        u = np.asarray(u, dtype=float)
        out = (1.0 - u) * u * (u - self.a)
        return float(out) if out.ndim == 0 else out

    def _centre_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the centre term ``g(v) - 4 v`` of ``Δ⁺v + g(v)`` into ``out``
        and return it; ``out`` must not overlap ``v``.  It is the one
        polynomial ``v (v ((1 + a) - v) - (a + 4))``, in place in four passes
        with no scratch."""
        np.subtract(1.0 + self.a, v, out=out)
        out *= v
        out -= self.a + 4.0
        out *= v
        return out

    def dg(self, u):
        """Evaluate ``g'(u)`` elementwise."""
        u = np.asarray(u, dtype=float)
        out = -3.0 * u * u + 2.0 * (1.0 + self.a) * u - self.a
        return float(out) if out.ndim == 0 else out

    def dg_sup(self) -> float:
        """Supremum of ``|g'|`` over ``[-1, 2]``, used by step-size bounds."""
        # quadratic in u: extremum at an endpoint or the vertex, in (1/3, 2/3)
        cand = (-1.0, 2.0, (1.0 + self.a) / 3.0)
        return max(abs(self.dg(u)) for u in cand)


@dataclass
class LatticeField:
    """A rectangular window of lattice values ``u[i, j]``.

    ``values`` has shape ``(width, height)`` (row-major, binary64) and the
    first axis carries lattice coordinates ``i = i_offset + row``.  Reads past
    the horizontal edges give the pinned equilibria (0 left, 1 right); reads
    past the vertical edges follow ``boundary_j``.
    """

    values: np.ndarray
    i_offset: int = 0
    boundary_j: str = "periodic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2d array (width, height)")
        if self.boundary_j not in BOUNDARY_J:
            raise ValueError(f"boundary_j must be one of {BOUNDARY_J}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def width(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    def lattice_i(self) -> np.ndarray:
        """Lattice coordinates of the rows, ``i_offset .. i_offset+width-1``."""
        return self.i_offset + np.arange(self.width)

    def padded(self) -> np.ndarray:
        """Values with one ghost layer on every side, a fresh contiguous
        array of shape (W+2, H+2).  The i-ghost rows are 0 and 1 whole,
        corners included, as ``_flat_runs`` reads the corners into entries
        it discards."""
        w, h = self.values.shape
        out = np.empty((w + 2, h + 2), dtype=float)
        out[0], out[1:-1, 1:-1], out[-1] = 0.0, self.values, 1.0
        return _fill_ghosts(out, self.boundary_j)


def _fill_ghosts(p: np.ndarray, boundary_j: str) -> np.ndarray:
    """Fill ``p[..., 0]`` and ``p[..., -1]`` of the padded array ``p`` in place
    from its interior by ``boundary_j`` and return ``p``.  The writes go
    through the transpose, whose first axis is ``j``, by basic indexing."""
    q = p.T
    if boundary_j == "periodic":
        q[0] = q[-2]
        q[-1] = q[1]
    else:
        q[0] = q[1]
        q[-1] = q[-2]
    return p


def _flat_runs(p: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Centre and neighbour values on the flat padded layout.

    ``p`` is a contiguous padded array (``LatticeField.padded``) and
    ``f = p.reshape(-1)`` holds its ``(W+2, S)`` entries row by row,
    ``S = H + 2``.  The ``W`` interior rows, ghost columns included,
    are the ``n = W*S`` contiguous entries ``f[S:S+n]``, and every neighbour
    is the same run shifted by a constant: ``±S`` for ``i ± 1`` and ``±1``
    for ``j ± 1``.  So all five reads are contiguous slices, which numpy
    streams faster than the strided ``(W, H)`` sub-blocks of the padded
    array.  The entries at the ghost columns (``j = -1`` and ``j = H``) mix
    neighbouring rows and the padding corners; they mean nothing, and every
    caller drops them (``[:, 1:-1]``) or overwrites them (``_fill_ghosts``).
    Returns the centre run and the ``(i + 1, i - 1, j + 1, j - 1)`` runs,
    all flat views into ``p``.
    """
    s = p.shape[1]
    n = (p.shape[0] - 2) * s
    f = p.reshape(-1)
    return f[s:s + n], (f[2 * s:2 * s + n], f[:n], f[s + 1:s + 1 + n], f[s - 1:s - 1 + n])


# How far one ``_ssprk104`` step of a nearest-neighbour ``euler`` reaches along
# the first axis: ten forward-Euler substeps, each reading one row either
# side, combined pointwise.  Output row ``c`` reads input rows ``c - 10 ..
# c + 10`` only.
_SSPRK104_REACH = 10


def _substep(rhs, h: float):
    """The forward-Euler substep ``E(p) = p[1:-1] + h rhs(p)`` of the lattice
    and of both phase flows, as the binder ``_ssprk104`` takes.

    ``rhs`` is a right-hand side binder: ``rhs(p)`` slices the padded array
    ``p`` once and returns ``f(out)``, which writes the right-hand side at
    ``p`` into ``out``, the next stage's interior.  ``_substep(rhs, h)(p)``
    binds ``p`` the same way and returns ``E_p(out)``: ``f(out)``, then
    ``out`` scaled by ``h`` and plus ``p[1:-1]``.  So a stepper that binds
    each stage buffer once makes no view and no closure per substep.  ``h``
    is kept as a 0-d array, which numpy broadcasts without converting a
    Python float each call."""
    h = np.array(h)

    def euler(p: np.ndarray):
        f, u = rhs(p), p[1:-1]

        def substep(out: np.ndarray) -> None:
            f(out)
            out *= h
            out += u

        return substep

    return euler


def _ssprk104(p0: np.ndarray, euler, boundary_j: str,
              work: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """One SSPRK(10,4) step (Ketcheson, SIAM J. Sci. Comput. 30, 2008) from
    the padded array ``p0``, last axis ``j``; returns the padded result.

    ``euler``, made by :func:`_substep`, binds a padded stage: ``euler(p)``
    is ``E_p(out)``, which writes the forward-Euler substep ``E(p)`` into
    ``out``, shaped like ``p[1:-1]``.  In Shu-Osher form, with ``u =
    p0[1:-1]``: ``y_{k+1} = E(y_k)`` from ``y1 = u`` for ``k = 1..4`` and
    from ``y6 = (3/5) u + (2/5) E(y5)`` for ``k = 6..9``; the result is
    ``(3/5) E(y10) + (9/25) E(y5) + u / 25``.  The weights are
    nonnegative, so the step is monotone wherever ``E`` is (Gottlieb, Shu
    and Tadmor 2001).
    Two padded buffers take turns as the stages, with ``p0[0]`` and
    ``p0[-1]`` (a lattice array's i-ghost rows, a sequence's j-ghosts)
    pinned in both and the j-ghosts filled by ``_fill_ghosts``; the
    combinations run in place in dead stage buffers.  Each of the three
    padded arrays is bound once per step, so the ten substeps slice
    nothing.  ``work``, if given, lends the two stage buffers and the
    buffer of ``E(y5)``, none of them overlapping ``p0``; the result is the
    first.  Else they are made afresh.  So a caller that lends ``work`` and
    keeps one spare buffer for the next step's ``p0`` steps without
    allocating.  Invalid operations (``inf - inf``) on non-finite stage
    values do not warn.
    """
    u = p0[1:-1]
    pa, pb, e5 = (np.empty_like(p0), np.empty_like(p0), np.empty_like(u)) if work is None else work
    ya, yb = pa[1:-1], pb[1:-1]
    pa[0] = pb[0] = p0[0]
    pa[-1] = pb[-1] = p0[-1]
    # each stage: the interior it is written to, its buffer, and the bound
    # substep that reads it
    stages = ((ya, pa, euler(pa)), (yb, pb, euler(pb))) * 2
    with np.errstate(invalid="ignore"):
        e = euler(p0)
        for y, q, e_next in stages:  # y2 .. y5
            e(y)
            _fill_ghosts(q, boundary_j)
            e = e_next
        e(e5)
        np.multiply(e5, 0.4, out=yb)  # y6; y5 is dead
        yb += np.multiply(u, 0.6, out=ya)
        _fill_ghosts(pb, boundary_j)
        for y, q, e_next in stages:  # y7 .. y10
            e(y)
            _fill_ghosts(q, boundary_j)
            e = e_next
        e(ya)
        ya *= 0.6
        e5 *= 0.36
        ya += e5
        ya += np.multiply(u, 0.04, out=yb)  # y10 is dead
    return _fill_ghosts(pa, boundary_j)


@dataclass
class PhaseSequence:
    """A sequence indexed by the vertical coordinate ``j`` (one value per row)."""

    values: np.ndarray
    boundary_j: str = "periodic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1d array")
        if self.boundary_j not in BOUNDARY_J:
            raise ValueError(f"boundary_j must be one of {BOUNDARY_J}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sequence values must be finite")

    def __len__(self) -> int:
        return self.values.size

    def padded(self) -> np.ndarray:
        """Values with one ghost on each end by ``boundary_j``, shape
        ``(H+2,)``: entry ``j + 1`` holds ``s_j`` for ``j = -1 .. H``."""
        out = np.empty(len(self) + 2)
        out[1:-1] = self.values
        return _fill_ghosts(out, self.boundary_j)

    def replace(self, values: np.ndarray) -> "PhaseSequence":
        return PhaseSequence(np.asarray(values, dtype=float), self.boundary_j)


def d_plus(s: PhaseSequence) -> np.ndarray:
    """Forward difference ``s_{j+1} - s_j``."""
    q = s.padded()
    return q[2:] - q[1:-1]


def d_minus(s: PhaseSequence) -> np.ndarray:
    """Backward difference ``s_j - s_{j-1}``."""
    q = s.padded()
    return q[1:-1] - q[:-2]


def d2(s: PhaseSequence) -> np.ndarray:
    """Second difference ``s_{j+1} - 2 s_j + s_{j-1}``."""
    q = s.padded()
    return q[2:] - 2.0 * q[1:-1] + q[:-2]


def alpha(s: PhaseSequence) -> np.ndarray:
    """``β² - 1 = (|d_plus|² + |d_minus|²)/2 >= 0``, with ``β >= 1`` the
    discrete slope factor of the curvature flow."""
    dp = d_plus(s)
    dm = d_minus(s)
    return 0.5 * (dp * dp + dm * dm)


def deviation_seminorm(s: PhaseSequence) -> float:
    """``sup_j |s_j - s_{j0}|`` anchored at the first entry."""
    return float(np.max(np.abs(s.values - s.values[0])))
