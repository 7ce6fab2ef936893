"""Containers, nonlinearities and difference operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acfront.core import (BistableNonlinearity, LatticeField, PhaseSequence,
                          alpha, beta, d2, d_minus, d_plus,
                          deviation_seminorm, discrete_laplacian)


def test_cubic_frozen_values():
    f = BistableNonlinearity(a=0.3)
    assert f(0.0) == 0.0
    assert f(0.3) == 0.0
    assert f(1.0) == 0.0
    assert f(0.2) == pytest.approx(-0.016, abs=1e-15)
    assert f(0.5) == pytest.approx(0.05, abs=1e-15)
    assert f(np.array([0.2, 0.5])) == pytest.approx([-0.016, 0.05], abs=1e-15)


def test_cubic_derivative_matches_difference_quotient():
    f = BistableNonlinearity(a=0.3)
    u = np.linspace(-0.5, 1.5, 41)
    eps = 1e-6
    fd = (f(u + eps) - f(u - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - f.dg(u))) < 1e-9


def test_dg_sup_attained_on_window():
    f = BistableNonlinearity(a=0.3)
    # the cubic's |g'| on [-1, 2] peaks at the endpoint u = 2
    assert f.dg_sup() == pytest.approx(7.1, abs=1e-12)
    s = np.linspace(-1.0, 2.0, 20001)
    assert f.dg_sup() >= np.max(np.abs(f.dg(s))) - 1e-9


def test_detuning_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        BistableNonlinearity(a=0.0)
    with pytest.raises(ValueError):
        BistableNonlinearity(a=1.0)


def test_table_nonlinearity_matches_sampled_cubic():
    f = BistableNonlinearity(a=0.3)
    u = np.linspace(-0.5, 1.5, 513)
    tab = BistableNonlinearity(a=0.3, kind="table", table_u=u, table_g=f(u))
    s = np.linspace(-0.45, 1.45, 101)
    assert np.max(np.abs(tab(s) - f(s))) < 1e-9
    assert np.max(np.abs(tab.dg(s) - f.dg(s))) < 1e-6
    assert abs(tab.dg_sup() - f.dg_sup()) < 1e-4


def test_table_validation_rejects_broken_tables():
    f = BistableNonlinearity(a=0.3)
    u = np.linspace(-0.5, 1.5, 257)
    g = f(u)
    with pytest.raises(ValueError):
        # does not vanish at the equilibria
        BistableNonlinearity(a=0.3, kind="table", table_u=u, table_g=g + 0.01)
    with pytest.raises(ValueError):
        # inverted sign pattern (positive slopes at 0 and 1)
        BistableNonlinearity(a=0.3, kind="table", table_u=u, table_g=-g)
    with pytest.raises(ValueError):
        # window must cover [-0.5, 1.5]
        uu = np.linspace(0.0, 1.0, 257)
        BistableNonlinearity(a=0.3, kind="table", table_u=uu, table_g=f(uu))


def test_field_ghosts_pinned_to_equilibria():
    u = LatticeField(np.arange(12.0).reshape(4, 3) / 12.0, i_offset=-2)
    assert u.at(-3, 0) == 0.0
    assert u.at(-100, 2) == 0.0
    assert u.at(2, 1) == 1.0
    assert u.at(100, 0) == 1.0
    assert u.at(-2, 0) == u.values[0, 0]
    assert u.at(1, 2) == u.values[3, 2]


def test_field_column_boundary_policies():
    vals = np.arange(12.0).reshape(4, 3)
    per = LatticeField(vals, boundary_j="periodic")
    ref = LatticeField(vals, boundary_j="reflect")
    assert per.at(1, 3) == vals[1, 0]
    assert per.at(1, -1) == vals[1, 2]
    assert ref.at(1, 3) == vals[1, 2]
    assert ref.at(1, -1) == vals[1, 0]


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_field_at_raises_past_the_ghost_layer(boundary_j):
    u = LatticeField(np.arange(12.0).reshape(4, 3), boundary_j=boundary_j)
    for j in (-2, 4, 100):
        with pytest.raises(ValueError, match="past the ghost layer"):
            u.at(1, j)
    # the i-ghost rows clip, whatever the distance
    assert (u.at(-50, -1), u.at(50, 3)) == (0.0, 1.0)


@settings(max_examples=100)
@given(data=st.data(), width=st.integers(1, 6), height=st.integers(1, 8),
       boundary_j=st.sampled_from(["periodic", "reflect"]))
def test_field_rows_and_phase_sequences_share_the_j_ghosts(data, width, height,
                                                           boundary_j):
    vals = data.draw(hnp.arrays(float, (width, height),
                                elements=st.floats(-1e3, 1e3, allow_nan=False)))
    p = LatticeField(vals, boundary_j=boundary_j).padded()
    assert np.all(p[0] == 0.0) and np.all(p[-1] == 1.0)
    for row, padded_row in zip(vals, p[1:-1]):
        assert np.array_equal(padded_row, PhaseSequence(row, boundary_j).padded())


def test_laplacian_matches_pointwise_stencil():
    """The whole-window Laplacian equals the scalar stencil bit for bit at
    every site of every window up to 12x8, ghosts of both policies included."""
    rng = np.random.default_rng(5)
    for bc in ("periodic", "reflect"):
        for width in range(1, 13):
            for height in range(1, 9):
                u = LatticeField(rng.uniform(size=(width, height)), i_offset=-3,
                                 boundary_j=bc)
                lap = discrete_laplacian(u)
                assert lap.shape == (width, height)
                pointwise = [[discrete_laplacian(u, i, j) for j in range(height)]
                             for i in u.lattice_i()]
                assert np.array_equal(lap, pointwise)


def test_laplacian_of_constant_vanishes_inside():
    # interior rows see only the constant; edge rows see the pinned ghosts
    u = LatticeField(np.full((5, 4), 0.25))
    lap = discrete_laplacian(u)
    assert np.all(lap[1:-1, :] == 0.0)
    assert np.all(lap[0, :] == -0.25)
    assert np.all(lap[-1, :] == 0.75)


def test_padded_respects_boundary():
    s = PhaseSequence(np.array([1.0, 2.0, 3.0]))
    assert s.padded().tolist() == [3.0, 1.0, 2.0, 3.0, 1.0]
    r = PhaseSequence(np.array([1.0, 2.0, 3.0]), boundary_j="reflect")
    assert r.padded().tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]
    assert PhaseSequence(np.array([5.0])).padded().tolist() == [5.0, 5.0, 5.0]


def test_difference_operators_frozen_example():
    s = PhaseSequence(np.array([0.0, 1.0, 3.0, 6.0]), boundary_j="reflect")
    assert d_plus(s).tolist() == [1.0, 2.0, 3.0, 0.0]
    assert d_minus(s).tolist() == [0.0, 1.0, 2.0, 3.0]
    assert d2(s).tolist() == [1.0, 1.0, 1.0, -3.0]


def test_beta_alpha_identity():
    rng = np.random.default_rng(7)
    s = PhaseSequence(rng.normal(size=32))
    b = beta(s)
    assert np.all(b >= 1.0)
    assert np.max(np.abs(b * b - 1.0 - alpha(s))) < 1e-12
    assert np.all(alpha(s) >= 0.0)


def test_deviation_seminorm_anchored_at_first_entry():
    s = PhaseSequence(np.array([2.0, -1.0, 5.0]))
    assert deviation_seminorm(s) == 3.0
    assert deviation_seminorm(PhaseSequence(np.array([4.0, 4.0]))) == 0.0


def test_container_validation():
    with pytest.raises(ValueError):
        LatticeField(np.zeros(3))
    with pytest.raises(ValueError):
        LatticeField(np.zeros((2, 2)), boundary_j="mirror")
    with pytest.raises(ValueError):
        LatticeField(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        PhaseSequence(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        PhaseSequence(np.zeros((2, 2)))
