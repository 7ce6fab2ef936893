"""Lattice containers, the bistable cubic and discrete difference operators.

Everything here is binary64, and the public operators are side-effect free:
they return fresh arrays and never mutate their inputs (the private
``_centre_into`` writes into a buffer its caller owns).  Two boundary
policies appear throughout the package and are fixed at this level:

* in the horizontal (``i``) direction fields always use ``dirichlet_equilibria``
  ghosts: reads left of the window give the equilibrium 0, reads right of it
  give 1;
* in the vertical (``j``) direction either ``periodic`` (indices wrap) or
  ``reflect`` (the ghost equals the edge value, i.e. zero discrete flux).

The j-policy is a field of each container, and one ghost rule applies it:
``_fill_ghosts``, on the last axis of ``LatticeField.padded``,
``PhaseSequence.padded`` and the stage buffers of ``_ssprk104``, the one
time step of the lattice and of the phase flows; the difference operators
read those arrays.  Outside this module only ``flow.heat_solve`` reads the
policy: it pads the sequence by the kernel's nonzero half-width K, wrapped
(``periodic``) or mirrored (``reflect``, the even extension this ghost rule
implies), and forms the P outputs as direct sums, P·min(2K + 1, period)
products with period P or 2P; no FFT, whose round-off would swamp the
e^{-500}-scale Cole-Hopf values.

``BistableNonlinearity`` is the cubic ``g(u) = u (1 - u) (u - a)``, the
package's one reaction term.  ``CubicSpline`` is the package's one
interpolating spline, clamped at both ends: the profile and corrector of
``wave`` use it.  It reproduces the clamped ``scipy.interpolate.CubicSpline``
bit for bit on numpy alone: its tridiagonal solve ``_gtsv`` transcribes
reference LAPACK ``dgtsv``, the routine behind
``scipy.linalg.solve_banded((1, 1), ...)``.  Importing scipy costs more than
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
    clamped ends, bit for bit: the knot slopes solve scipy's tridiagonal
    system with ``_gtsv``, as scipy does with LAPACK, ``c`` holds its piecewise
    coefficients (``c[m, k]`` multiplies ``(x - x[k])**(3 - m)``), and a call
    sums the terms in scipy's order.  Points outside ``[x[0], x[-1]]``
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
        # the tridiagonal system for the knot slopes s, scipy's rows:
        # sub-, main and superdiagonal; the end rows clamp s to 0
        dl = np.append(dx[1:], 0.0)
        d = np.ones(x.size)
        du = np.insert(dx[:-1], 0, 0.0)
        b = np.zeros(x.size)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        s = _gtsv(dl, d, du, b)
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


def _gtsv(dl, d, du, b) -> np.ndarray:
    """Solution of the n x n tridiagonal system with main diagonal ``d``,
    subdiagonal ``dl`` and superdiagonal ``du`` (``n - 1`` entries each;
    ``dl[i]`` lies in row ``i + 1``, ``du[i]`` in row ``i``) and right-hand
    side ``b``.

    A transcription of reference LAPACK ``dgtsv`` for one right-hand side,
    operation for operation, so the result equals
    ``scipy.linalg.solve_banded((1, 1), ...)`` byte for byte: Gaussian
    elimination that swaps rows ``i`` and ``i + 1`` when ``|d[i]| < |dl[i]|``
    (the swapped row's fill-in is a second superdiagonal, kept in ``dl``),
    then back substitution.  Raises ``numpy.linalg.LinAlgError`` at an
    exactly zero pivot.  The inputs are left untouched.
    """
    dl, d, du, b = (np.asarray(v, dtype=float).tolist() for v in (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


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
    from its interior by ``boundary_j`` and return ``p``."""
    if boundary_j == "periodic":
        p[..., 0] = p[..., -2]
        p[..., -1] = p[..., 1]
    else:
        p[..., 0] = p[..., 1]
        p[..., -1] = p[..., -2]
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
    caller drops them through ``[:, 1:-1]``.  Returns the centre run and the
    ``(i + 1, i - 1, j + 1, j - 1)`` runs, all flat views into ``p``.
    """
    s = p.shape[1]
    n = (p.shape[0] - 2) * s
    f = p.reshape(-1)
    return f[s:s + n], (f[2 * s:2 * s + n], f[:n], f[s + 1:s + 1 + n], f[s - 1:s - 1 + n])


def _flat_laplacian(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Five-point Laplacian and centre values of the padded array ``p`` on
    the flat layout of ``_flat_runs``: ``(lap, c)``, both shaped ``(W, S)``,
    ``lap`` a fresh array and ``c`` a view into ``p``."""
    c, (east, west, north, south) = _flat_runs(p)
    # same summation order as the pointwise stencil: ((E + W) + N) + S - 4c
    lap = east + west
    lap += north
    lap += south
    lap -= 4.0 * c
    shape = (p.shape[0] - 2, p.shape[1])
    return lap.reshape(shape), c.reshape(shape)


# How far one ``_ssprk104`` step of a nearest-neighbour ``euler`` reaches along
# the first axis: ten forward-Euler substeps, each reading one row either
# side, combined pointwise.  Output row ``c`` reads input rows ``c - 10 ..
# c + 10`` only.
_SSPRK104_REACH = 10


def _ssprk104(p0: np.ndarray, euler, boundary_j: str,
              work: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """One SSPRK(10,4) step (Ketcheson, SIAM J. Sci. Comput. 30, 2008) from
    the padded array ``p0``, last axis ``j``; returns the padded result.

    ``euler(p, out)`` writes the forward-Euler substep ``E(p)`` into
    ``out``, shaped like ``p[1:-1]``.  In Shu-Osher form, with
    ``u = p0[1:-1]``: ``y_{k+1} = E(y_k)`` from ``y1 = u`` for ``k = 1..4``
    and from ``y6 = (3/5) u + (2/5) E(y5)`` for ``k = 6..9``; the result is
    ``(3/5) E(y10) + (9/25) E(y5) + u / 25``.  The weights are nonnegative,
    so the step is monotone wherever ``E`` is (Gottlieb, Shu and Tadmor 2001).
    Two padded buffers take turns as the stages, with ``p0[[0, -1]]`` (a
    lattice array's i-ghost rows) pinned in both and the j-ghosts filled by
    ``_fill_ghosts``; the combinations run in place in dead stage buffers.
    ``work``, if given, lends the two stage buffers and the buffer of
    ``E(y5)``, none of them overlapping ``p0``; the result is the first.
    Else they are made afresh.  Invalid operations (``inf - inf``) on
    non-finite stage values do not warn.
    """
    u = p0[1:-1]
    pa, pb, e5 = (np.empty_like(p0), np.empty_like(p0), np.empty_like(u)) if work is None else work
    pa[[0, -1]] = pb[[0, -1]] = p0[[0, -1]]
    with np.errstate(invalid="ignore"):
        p = p0
        for q in (pa, pb, pa, pb):  # y2 .. y5
            euler(p, q[1:-1])
            p = _fill_ghosts(q, boundary_j)
        euler(p, e5)
        y6 = np.multiply(e5, 0.4, out=pb[1:-1])  # y5 is dead
        y6 += np.multiply(u, 0.6, out=pa[1:-1])
        p = _fill_ghosts(pb, boundary_j)
        for q in (pa, pb, pa, pb):  # y7 .. y10
            euler(p, q[1:-1])
            p = _fill_ghosts(q, boundary_j)
        out = pa[1:-1]
        euler(p, out)
        out *= 0.6
        e5 *= 0.36
        out += e5
        out += np.multiply(u, 0.04, out=pb[1:-1])  # y10 is dead
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
