"""Lattice containers, bistable nonlinearities and discrete difference operators.

Everything here is binary64, and the public operators are side-effect free:
they return fresh arrays and never mutate their inputs (the private stencil
helpers write into buffers their caller owns).  Two boundary policies appear throughout
the package and are fixed at this level:

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
policy, to extend a reflecting sequence evenly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "BistableNonlinearity",
    "LatticeField",
    "PhaseSequence",
    "d_plus",
    "d_minus",
    "d2",
    "alpha",
    "deviation_seminorm",
]

BOUNDARY_J = ("periodic", "reflect")
_DG_SUP_LO, _DG_SUP_HI = -1.0, 2.0


@dataclass(frozen=True)
class BistableNonlinearity:
    """Bistable reaction term ``g`` with stable zeros 0, 1 and unstable zero ``a``.

    The default is the cubic ``g(u) = u (1 - u) (u - a)``.  A sampled table
    ``(table_u, table_g)`` may be supplied instead; it is interpolated with a
    cubic spline and validated against the bistability hypotheses on
    construction (zeros at 0, ``a``, 1 with the correct sign pattern and
    negative slopes at 0 and 1).
    """

    a: float
    kind: str = "cubic"
    table_u: Optional[np.ndarray] = None
    table_g: Optional[np.ndarray] = None
    _spline: CubicSpline = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"detuning a must lie in (0, 1), got {self.a}")
        if self.kind == "cubic":
            return
        if self.kind != "table":
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.table_u is None or self.table_g is None:
            raise ValueError("table nonlinearity needs table_u and table_g")
        u = np.asarray(self.table_u, dtype=float)
        g = np.asarray(self.table_g, dtype=float)
        if u.ndim != 1 or u.shape != g.shape or u.size < 8:
            raise ValueError("table_u/table_g must be equal-length 1d arrays")
        if np.any(np.diff(u) <= 0):
            raise ValueError("table_u must be strictly increasing")
        if u[0] > -0.5 or u[-1] < 1.5:
            raise ValueError("table must cover at least [-0.5, 1.5]")
        object.__setattr__(self, "table_u", u)
        object.__setattr__(self, "table_g", g)
        object.__setattr__(self, "_spline", CubicSpline(u, g))
        self._validate_table()

    def _validate_table(self):
        tol = 1e-8
        for root in (0.0, self.a, 1.0):
            if abs(float(self._spline(root))) > tol:
                raise ValueError(f"table nonlinearity must vanish at u={root}")
        if self.dg(0.0) >= 0.0 or self.dg(1.0) >= 0.0:
            raise ValueError("table nonlinearity must have negative slope at 0 and 1")
        lo, hi = float(self.table_u[0]), float(self.table_u[-1])
        margin = 1e-4
        for a_, b_, sign in (
            (lo, -margin, +1.0),
            (margin, self.a - margin, -1.0),
            (self.a + margin, 1.0 - margin, +1.0),
            (1.0 + margin, hi, -1.0),
        ):
            if a_ >= b_:
                continue
            s = np.linspace(a_, b_, 257)
            if np.any(sign * self._spline(s) <= 0.0):
                raise ValueError("table nonlinearity violates the bistable sign pattern")

    def __call__(self, u):
        """Evaluate ``g(u)`` elementwise."""
        u = np.asarray(u, dtype=float)
        out = self._into(u, np.empty_like(u), np.empty_like(u))
        return float(out) if out.ndim == 0 else out

    def _into(self, u: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Write ``g(u)`` into ``out`` and return it; ``tmp`` is scratch of
        the same shape.  The cubic is ``((1 - u) u) (u - a)``, all in place;
        neither buffer may overlap ``u``."""
        if self.kind == "cubic":
            np.subtract(1.0, u, out=out)
            out *= u
            out *= np.subtract(u, self.a, out=tmp)
        else:
            out[...] = self._spline(u)
        return out

    def dg(self, u):
        """Evaluate ``g'(u)`` elementwise."""
        if self.kind == "cubic":
            u = np.asarray(u, dtype=float)
            out = -3.0 * u * u + 2.0 * (1.0 + self.a) * u - self.a
            return float(out) if out.ndim == 0 else out
        out = self._spline(u, 1)
        return float(out) if np.ndim(u) == 0 else np.asarray(out, dtype=float)

    def dg_sup(self) -> float:
        """Supremum of ``|g'|`` over ``[-1, 2]``, used by step-size bounds."""
        if self.kind == "cubic":
            # quadratic in u: extremum at an endpoint or the vertex, in (1/3, 2/3)
            cand = (_DG_SUP_LO, _DG_SUP_HI, (1.0 + self.a) / 3.0)
            return max(abs(self.dg(u)) for u in cand)
        s = np.linspace(_DG_SUP_LO, _DG_SUP_HI, 4097)
        return float(np.max(np.abs(self.dg(s))))


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
        """Values with one ghost layer on every side, shape (W+2, H+2).  The
        i-ghost rows are 0 and 1 whole, corners included, as
        ``_flat_laplacian`` reads the corners into entries it discards."""
        w, h = self.values.shape
        out = np.empty((w + 2, h + 2), dtype=float)
        out[0], out[1:-1, 1:-1], out[-1] = 0.0, self.values, 1.0
        return _fill_ghosts(out, self.boundary_j)

    def copy(self) -> "LatticeField":
        return LatticeField(self.values.copy(), self.i_offset, self.boundary_j)


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


def _flat_laplacian(p: np.ndarray, out: Optional[np.ndarray] = None,
                    tmp: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Five-point Laplacian and centre values on the flat padded layout.

    ``p`` is a contiguous padded array (``LatticeField.padded``) and
    ``f = p.reshape(-1)`` holds its ``(W+2, S)`` entries row by row,
    ``S = H + 2``.  The ``W`` interior rows, ghost columns included,
    are the ``n = W*S`` contiguous entries ``f[S:S+n]``, and every neighbour
    is the same run shifted by a constant: ``±S`` for ``i ± 1`` and ``±1``
    for ``j ± 1``.  So all five reads are contiguous slices, which numpy
    streams faster than the strided ``(W, H)`` sub-blocks of the padded
    array.  The entries at the ghost columns (``j = -1`` and ``j = H``) mix
    neighbouring rows and the padding corners; they mean nothing, and every
    caller drops them through ``[:, 1:-1]``.  Returns ``(lap, c)``, both
    contiguous and shaped ``(W, S)``: ``lap`` is written into ``out`` (any
    contiguous array of ``W*S`` entries that does not overlap ``p``) or a
    fresh array, ``c`` is a view into ``p``.  ``tmp``, of the same kind as
    ``out``, holds ``4c``; without it that is a fresh array too.
    """
    w = p.shape[0] - 2
    s = p.shape[1]
    n = w * s
    f = p.reshape(-1)
    c = f[s:s + n]
    # same summation order as the pointwise stencil: ((E + W) + N) + S - 4c
    lap = np.add(f[2 * s:2 * s + n], f[:n], out=None if out is None else out.reshape(-1))
    lap += f[s + 1:s + 1 + n]
    lap += f[s - 1:s - 1 + n]
    lap -= np.multiply(c, 4.0, out=None if tmp is None else tmp.reshape(-1))
    return lap.reshape(w, s), c.reshape(w, s)


def _ssprk104(p0: np.ndarray, euler, boundary_j: str) -> np.ndarray:
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
    Invalid operations (``inf - inf``) on non-finite stage values do not warn.
    """
    u = p0[1:-1]
    pa, pb = np.empty_like(p0), np.empty_like(p0)
    pa[[0, -1]] = pb[[0, -1]] = p0[[0, -1]]
    e5 = np.empty_like(u)
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
