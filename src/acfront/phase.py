"""Interface phase extraction and front-convergence diagnostics.

The phase of a front-like field is defined for each row ``j``: the unique
lattice index ``i*`` with ``0 < u_{i*,j} <= 1/2 < u_{i*+1,j}`` anchors the
interface and the profile inverse turns the value there into a sub-cell
position, ``gamma_j = i* - Phi^{-1}(u_{i*,j})``.  All rows of a snapshot are
extracted in one whole-array pass with one vector inverse call.  Rows
without a unique crossing are recorded as undefined rather than guessed;
convergence metrics that need every row defined raise instead of silently
skipping data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import LatticeField, PhaseSequence
from .errors import NoDefinedRows, UndefinedRows
from .wave import WaveProfile, phi_inverse

__all__ = [
    "PhaseExtract",
    "extract",
    "interfacial_monotonicity",
    "flatness",
    "front_error",
    "phase_series_to_csv",
]


@dataclass
class PhaseExtract:
    """Per-row interface phase with its anchor indices and defined flags."""

    gamma: PhaseSequence
    i_star: np.ndarray
    defined_mask: np.ndarray
    clamped_mask: np.ndarray

    @property
    def all_defined(self) -> bool:
        return bool(np.all(self.defined_mask))

    def defined_values(self) -> np.ndarray:
        return self.gamma.values[self.defined_mask]


def extract(u: LatticeField, w: WaveProfile) -> PhaseExtract:
    """Extract the interface phase of every row of ``u`` in one pass.

    A row is defined when exactly one index satisfies the crossing condition
    ``0 < u_{i,j} <= 1/2 < u_{i+1,j}``; the crossings of all rows come from
    one mask over the snapshot.  Anchor values below the resolved profile
    range are clamped to it and flagged, and the defined rows are inverted by
    one vector :func:`phi_inverse` call.  Undefined rows carry
    ``gamma = nan`` and ``i_star = int64 min``.
    """
    # a window narrower than two sites has no crossing; stand in a zero pair
    vals = u.values if u.width >= 2 else np.zeros((2, u.height))
    crossing = (vals[:-1] > 0.0) & (vals[:-1] <= 0.5) & (vals[1:] > 0.5)
    defined = np.count_nonzero(crossing, axis=0) == 1
    k = crossing.argmax(axis=0)
    anchor = vals[k, np.arange(u.height)]
    value = np.clip(anchor, np.nextafter(float(w.phi[0]), 1.0),
                    np.nextafter(float(w.phi[-1]), 0.0))
    clamped = defined & (value != anchor)
    i_star = np.where(defined, k + u.i_offset, np.iinfo(np.int64).min).astype(np.int64)
    gamma = np.full(u.height, np.nan)
    gamma[defined] = i_star[defined] - phi_inverse(w, value[defined])
    return PhaseExtract(_nan_tolerant_sequence(gamma, u.boundary_j),
                        i_star, defined, clamped)


def _nan_tolerant_sequence(values: np.ndarray, boundary_j: str) -> PhaseSequence:
    # PhaseSequence validates finiteness; undefined rows are carried as nan,
    # so bypass the constructor check while keeping the shifted() machinery.
    seq = PhaseSequence(np.zeros_like(values), boundary_j=boundary_j)
    seq.values = np.asarray(values, dtype=float)
    return seq


def interfacial_monotonicity(u: LatticeField, w: WaveProfile) -> dict:
    """Forward-difference and ray-structure checks on the interfacial region.

    The region is ``{(i, j): Phi(-2) <= u_{i,j} <= Phi(2)}``.  Reports the
    minimum of ``u_{i+1,j} - u_{i,j}`` over it, and whether the sets below
    ``Phi(-2)`` and above ``Phi(2)`` are left and right rays in ``i`` (no
    re-entry through either boundary).
    """
    lo = float(w.phi_at(-2.0))
    hi = float(w.phi_at(2.0))
    vals = u.values
    inside = (vals >= lo) & (vals <= hi)
    fwd = vals[1:, :] - vals[:-1, :]
    region = inside[:-1, :]
    min_diff: Optional[float] = float(np.min(fwd[region])) if np.any(region) else None

    below = vals <= lo
    above = vals >= hi
    # (iii): a site below the lower threshold must have its left neighbour below
    bad_below = below[1:, :] & ~below[:-1, :] & (vals[:-1, :] > lo)
    # (iv): a site above the upper threshold must have its right neighbour above
    bad_above = above[:-1, :] & ~above[1:, :] & (vals[1:, :] < hi)
    below_sites = [(int(i) + 1 + u.i_offset, int(j)) for i, j in zip(*np.nonzero(bad_below))]
    above_sites = [(int(i) + u.i_offset, int(j)) for i, j in zip(*np.nonzero(bad_above))]
    return {
        "min_forward_difference": min_diff,
        "interfacial_sites": int(np.count_nonzero(inside)),
        "monotone": min_diff is not None and min_diff > 0.0,
        "no_reentry_below": not below_sites,
        "no_reentry_above": not above_sites,
        "reentry_below_sites": below_sites,
        "reentry_above_sites": above_sites,
    }


def flatness(g: PhaseExtract) -> float:
    """``sup_j |gamma_{j+1} - gamma_j|`` over adjacent defined pairs."""
    if np.count_nonzero(g.defined_mask) < 2:
        raise NoDefinedRows("flatness needs at least two defined rows")
    mask = g.defined_mask
    height = mask.size
    idx = np.arange(height)
    if g.gamma.boundary_j == "periodic":
        nxt = (idx + 1) % height
    else:
        idx = idx[:-1]
        nxt = idx + 1
    pair = mask[idx] & mask[nxt]
    if not np.any(pair):
        raise NoDefinedRows("no adjacent pair of defined rows")
    diffs = g.gamma.values[nxt[pair]] - g.gamma.values[idx[pair]]
    return float(np.max(np.abs(diffs)))


def front_error(u: LatticeField, w: WaveProfile, g: PhaseExtract) -> float:
    """``sup_{i,j} |u_{i,j} - Phi(i - gamma_j)|`` over the window."""
    if not g.all_defined:
        raise UndefinedRows("front_error needs every row's phase defined")
    i = u.lattice_i().astype(float)[:, None]
    ref = w.phi_at(i - g.gamma.values[None, :])
    return float(np.max(np.abs(u.values - ref)))


def phase_series_to_csv(records: Sequence[tuple[float, PhaseExtract]], path: str) -> None:
    """Phase time series as CSV with columns ``t, j, gamma, defined``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "j", "gamma", "defined"])
        for t, g in records:
            for j in range(len(g.gamma)):
                defined = bool(g.defined_mask[j])
                writer.writerow([format(t, ".17g"), j,
                                 format(g.gamma.values[j], ".17g") if defined else "",
                                 int(defined)])
