"""Phase extraction and front-convergence diagnostics."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfront.core import LatticeField
from acfront.errors import NoDefinedRows, UndefinedRows
from acfront.phase import (extract, flatness, front_error,
                           interfacial_monotonicity, phase_series_to_csv)
from acfront.wave import phi_inverse


def planar_field(w, gammas, width=48, i_offset=-24, boundary_j="periodic"):
    i = (np.arange(width) + i_offset).astype(float)[:, None]
    vals = w.phi_at(i - np.asarray(gammas, dtype=float)[None, :])
    return LatticeField(vals, i_offset=i_offset, boundary_j=boundary_j)


def test_extract_recovers_known_phases(wave03):
    gammas = np.array([0.0, 0.25, -1.5, 3.75, 7.0, -6.25])
    u = planar_field(wave03, gammas)
    g = extract(u, wave03)
    assert g.all_defined
    assert not np.any(g.clamped_mask)
    assert np.max(np.abs(g.gamma.values - gammas)) < 1e-9
    # the anchor is the last index at or below the half level
    for j, gam in enumerate(gammas):
        assert g.i_star[j] == int(np.floor(gam + 1e-12))


def test_extract_integer_shift_equivariance(wave03):
    gammas = np.array([0.4, -0.9, 2.2])
    base = extract(planar_field(wave03, gammas), wave03)
    shifted = extract(planar_field(wave03, gammas + 5.0), wave03)
    assert np.max(np.abs(shifted.gamma.values - base.gamma.values - 5.0)) < 1e-9


def test_extract_column_roll_invariance(wave03):
    gammas = np.array([0.4, -0.9, 2.2, 1.1])
    u = planar_field(wave03, gammas)
    rolled = LatticeField(np.roll(u.values, 2, axis=1), i_offset=u.i_offset)
    g = extract(rolled, wave03)
    assert np.max(np.abs(g.gamma.values - np.roll(gammas, 2))) < 1e-9


def test_extract_stable_under_small_noise(wave03):
    gammas = np.array([0.0, 1.3, -2.6])
    u = planar_field(wave03, gammas)
    rng = np.random.default_rng(12)
    u.values += 1e-4 * rng.uniform(-1.0, 1.0, size=u.values.shape)
    g = extract(u, wave03)
    assert g.all_defined
    assert np.max(np.abs(g.gamma.values - gammas)) < 1e-3


def test_extract_marks_rows_without_unique_crossing(wave03):
    u = planar_field(wave03, np.zeros(4))
    u.values[:, 1] = 0.8            # no crossing at all
    u.values[20:22, 2] = [0.4, 0.6]  # second crossing deep in the upper state
    g = extract(u, wave03)
    assert not g.all_defined
    assert list(g.defined_mask) == [True, False, False, True]
    assert np.isnan(g.gamma.values[1]) and np.isnan(g.gamma.values[2])
    assert g.defined_values().size == 2


def test_extract_clamps_below_resolved_range(wave03):
    w = wave03
    u = planar_field(w, np.zeros(3))
    row = 24 + u.i_offset  # lattice i = 0 holds the anchor value
    assert u.values[24, 0] <= 0.5
    u.values[24, 1] = 0.5 * float(w.phi[0])  # positive but below phi(-L)
    g = extract(u, w)
    assert g.all_defined
    assert g.clamped_mask[1] and not g.clamped_mask[0]
    assert g.gamma.values[1] == pytest.approx(row + w.L, abs=1e-6)


def extract_per_row(u, w):
    """Reference extraction, one row at a time with one scalar inverse call
    per defined row: ``(gamma, i_star, defined, clamped)``."""
    gamma = np.full(u.height, np.nan)
    i_star = np.full(u.height, np.iinfo(np.int64).min, dtype=np.int64)
    defined = np.zeros(u.height, dtype=bool)
    clamped = np.zeros(u.height, dtype=bool)
    lo = np.nextafter(float(w.phi[0]), 1.0)
    hi = np.nextafter(float(w.phi[-1]), 0.0)
    for j in range(u.height):
        col = u.values[:, j]
        hits = np.where((col[:-1] > 0.0) & (col[:-1] <= 0.5) & (col[1:] > 0.5))[0]
        if hits.size != 1:
            continue
        k = int(hits[0])
        value = float(col[k])
        if value < lo or value > hi:
            clamped[j] = True
            value = min(max(value, lo), hi)
        defined[j] = True
        i_star[j] = k + u.i_offset
        gamma[j] = i_star[j] - phi_inverse(w, value)
    return gamma, i_star, defined, clamped


@st.composite
def crossing_fields(draw, phi0):
    """Fields whose rows carry 0, 1 or several planted crossings.

    The background holds 0 and 0.9, neither of which can start a crossing;
    a planted crossing is an anchor in (0, 1/2] followed by a value above
    1/2.  Anchors at or below ``phi0`` are clamped by the extraction.
    """
    width = draw(st.integers(0, 24))
    height = draw(st.integers(1, 8))
    vals = np.array(draw(st.lists(st.sampled_from([0.0, 0.9]), min_size=width * height,
                                  max_size=width * height))).reshape(width, height)
    anchors = st.one_of(st.floats(0.0, phi0, exclude_min=True), st.floats(phi0, 0.5))
    for j in range(height):
        slots = range(draw(st.integers(0, 1)), width - 1, 2)
        if not slots:
            continue
        for k in draw(st.lists(st.sampled_from(slots), max_size=3, unique=True)):
            vals[k, j] = draw(anchors)
            vals[k + 1, j] = draw(st.floats(0.5, 1.0, exclude_min=True))
    return LatticeField(vals, i_offset=draw(st.integers(-40, 40).filter(bool)),
                        boundary_j=draw(st.sampled_from(["periodic", "reflect"])))


@settings(max_examples=150)
@given(data=st.data())
def test_extract_bit_identical_to_per_row_reference(wave03, data):
    u = data.draw(crossing_fields(float(wave03.phi[0])))
    g = extract(u, wave03)
    gamma, i_star, defined, clamped = extract_per_row(u, wave03)
    assert np.array_equal(g.gamma.values, gamma, equal_nan=True)
    assert g.gamma.boundary_j == u.boundary_j
    assert g.i_star.dtype == np.int64 and np.array_equal(g.i_star, i_star)
    assert np.array_equal(g.defined_mask, defined)
    assert np.array_equal(g.clamped_mask, clamped)


@settings(max_examples=60)
@given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_phi_inverse_vector_equals_scalar_calls(wave03, fracs):
    lo = np.nextafter(float(wave03.phi[0]), 1.0)
    hi = np.nextafter(float(wave03.phi[-1]), 0.0)
    v = np.clip(lo + np.asarray(fracs) * (hi - lo), lo, hi)
    assert np.array_equal(phi_inverse(wave03, v), [phi_inverse(wave03, x) for x in v])


def test_flatness_frozen_example(wave03):
    u = planar_field(wave03, np.array([0.0, 1.0, 3.0]))
    g = extract(u, wave03)
    assert flatness(g) == pytest.approx(3.0, abs=1e-8)
    r = extract(planar_field(wave03, np.array([0.0, 1.0, 3.0]),
                             boundary_j="reflect"), wave03)
    assert flatness(r) == pytest.approx(2.0, abs=1e-8)


def test_flatness_skips_undefined_pairs(wave03):
    u = planar_field(wave03, np.array([0.0, 0.5, 4.0, 4.5]))
    u.values[:, 2] = 0.8
    g = extract(u, wave03)
    # only the (0,1) and (3,0) adjacencies have both rows defined
    assert flatness(g) == pytest.approx(4.5, abs=1e-8)


def test_flatness_needs_two_defined_rows(wave03):
    u = planar_field(wave03, np.zeros(3))
    u.values[:, 1:] = 0.8
    with pytest.raises(NoDefinedRows):
        flatness(extract(u, wave03))


def test_front_error_zero_on_exact_front(wave03):
    gammas = np.array([0.7, -1.2, 2.9])
    u = planar_field(wave03, gammas)
    g = extract(u, wave03)
    assert front_error(u, wave03, g) < 1e-8


def test_front_error_sees_perturbation(wave03):
    u = planar_field(wave03, np.zeros(4))
    g = extract(u, wave03)
    u.values[30, 2] += 0.01
    assert front_error(u, wave03, g) == pytest.approx(0.01, abs=1e-7)


def test_front_error_requires_all_rows(wave03):
    u = planar_field(wave03, np.zeros(3))
    u.values[:, 0] = 0.8
    g = extract(u, wave03)
    with pytest.raises(UndefinedRows):
        front_error(u, wave03, g)


def test_monotonicity_clean_on_exact_front(wave03):
    u = planar_field(wave03, np.array([0.0, 0.5, 1.0, 1.5]))
    rep = interfacial_monotonicity(u, wave03)
    assert rep["monotone"]
    assert rep["min_forward_difference"] > 0.0
    assert rep["interfacial_sites"] > 0
    assert rep["no_reentry_below"] and rep["no_reentry_above"]
    assert rep["reentry_below_sites"] == []


def test_monotonicity_flags_reentry_islands(wave03):
    u = planar_field(wave03, np.zeros(4))
    u.values[5, 1] = 0.95   # upper-state island deep in the lower region
    u.values[40, 2] = 1e-6  # lower-state island deep in the upper region
    rep = interfacial_monotonicity(u, wave03)
    assert not rep["no_reentry_above"]
    assert not rep["no_reentry_below"]
    assert (5 + u.i_offset, 1) in rep["reentry_above_sites"]
    assert (40 + u.i_offset, 2) in rep["reentry_below_sites"]


def test_phase_series_csv(tmp_path, wave03):
    u = planar_field(wave03, np.array([0.5, 1.5, 2.5]))
    u.values[:, 1] = 0.8
    g = extract(u, wave03)
    path = tmp_path / "phase.csv"
    phase_series_to_csv([(0.0, g), (1.0, g)], str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "j", "gamma", "defined"]
    assert len(rows) == 1 + 2 * 3
    assert rows[2][2] == "" and rows[2][3] == "0"
    assert float(rows[1][2]) == g.gamma.values[0]
