"""Containers, nonlinearities and difference operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import interpolate
from scipy.linalg import solve_banded

from acfront.core import (BistableNonlinearity, CubicSpline, LatticeField,
                          PhaseSequence, _flat_laplacian, _gtsv, alpha, d2,
                          d_minus, d_plus, deviation_seminorm)


def laplacian(u: LatticeField) -> np.ndarray:
    """The whole-window five-point Laplacian: the flat stencil on the padded
    field with its ghost columns dropped."""
    return _flat_laplacian(u.padded())[0][:, 1:-1]


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
    p = u.padded()
    assert np.all(p[0] == 0.0) and np.all(p[-1] == 1.0)
    assert np.array_equal(p[1:-1, 1:-1], u.values)


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(4, 40), uniform=st.booleans(),
       bc=st.sampled_from(["clamped", "not-a-knot"]))
def test_cubic_spline_matches_scipy_bit_for_bit(data, n, uniform, bc):
    """Coefficients, values and first derivatives equal
    ``scipy.interpolate.CubicSpline``'s byte for byte: at the knots, at their
    float neighbours, at both ends, between and beyond them, and at 0-d
    points."""
    x0 = data.draw(st.floats(-100.0, 100.0))
    if uniform:
        x = x0 + data.draw(st.sampled_from([1.0 / 16.0, 0.1, 1.0, 3.0])) * np.arange(n)
    else:
        gaps = data.draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 1e2)))
        x = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-1e6, 1e6)))
    mine = CubicSpline(x, y, bc)
    ref = interpolate.CubicSpline(x, y, bc_type=bc)
    assert mine.c.tobytes() == ref.c.tobytes()
    span = x[-1] - x[0]
    between = data.draw(hnp.arrays(float, 16, elements=st.floats(x[0] - span, x[-1] + span)))
    pts = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), between])
    for nu in (0, 1):
        got = mine(pts, nu)
        assert got.shape == pts.shape and got.tobytes() == ref(pts, nu).tobytes()
        for p in (x[0], x[-1], between[0]):
            got = np.asarray(mine(np.float64(p), nu))
            want = ref(np.float64(p), nu)
            assert got.shape == want.shape == () and got.tobytes() == want.tobytes()


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(2, 30), scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
def test_gtsv_matches_scipy_solve_banded_byte_for_byte(data, n, scale):
    """``_gtsv`` equals ``scipy.linalg.solve_banded((1, 1), ...)`` byte for
    byte, or both refuse the system as singular (scipy divides a 1 x 1
    system itself, so ``n >= 2`` reaches LAPACK).  The main diagonal is
    drawn at ``scale`` times the off-diagonals, so the row-interchange branch
    (``|d[i]| < |dl[i]|``) is taken in most rows at small scales and in few
    at large ones; spline systems on uniform knots never reach it."""
    entries = st.floats(-10.0, 10.0)
    dl, du = (data.draw(hnp.arrays(float, n - 1, elements=entries)) for _ in range(2))
    d = scale * data.draw(hnp.arrays(float, n, elements=entries))
    b = data.draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    args = [v.copy() for v in (dl, d, du, b)]
    try:
        want = solve_banded((1, 1), ab, b)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _gtsv(*args)
        return
    assert _gtsv(*args).tobytes() == want.tobytes()
    for got, given_ in zip(args, (dl, d, du, b)):
        assert got.tobytes() == given_.tobytes()


def test_cubic_spline_rejects_bad_input():
    x = np.arange(6.0)
    for xs, ys in ((np.where(x == 2.0, np.nan, x), x), (x, np.where(x == 3.0, np.inf, x)),
                   (x[::-1], x), (x[:3], x[:3]), (x, x[:5])):
        with pytest.raises(ValueError):
            CubicSpline(xs, ys)
    with pytest.raises(ValueError, match="bc_type"):
        CubicSpline(x, x, "natural")
    with pytest.raises(ValueError, match="derivative order"):
        CubicSpline(x, x)(1.0, 2)


def test_field_column_boundary_policies():
    vals = np.arange(12.0).reshape(4, 3)
    per = LatticeField(vals, boundary_j="periodic").padded()[1:-1]
    ref = LatticeField(vals, boundary_j="reflect").padded()[1:-1]
    assert np.array_equal(per[:, -1], vals[:, 0])
    assert np.array_equal(per[:, 0], vals[:, 2])
    assert np.array_equal(ref[:, -1], vals[:, 2])
    assert np.array_equal(ref[:, 0], vals[:, 0])


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
    every site of every window up to 12x8, ghosts of both policies included:
    the scalar stencil reads a window padded by ``np.pad`` (0 left, 1 right,
    ``wrap`` or ``edge`` in j), summed in the same order."""
    rng = np.random.default_rng(5)
    for bc in ("periodic", "reflect"):
        for width in range(1, 13):
            for height in range(1, 9):
                vals = rng.uniform(size=(width, height))
                lap = laplacian(LatticeField(vals, i_offset=-3, boundary_j=bc))
                assert lap.shape == (width, height)
                q = np.pad(vals, ((0, 0), (1, 1)), mode="wrap" if bc == "periodic" else "edge")
                q = np.pad(q, ((1, 1), (0, 0)), constant_values=((0.0, 1.0), (0.0, 0.0)))
                pointwise = [[q[i + 2, j + 1] + q[i, j + 1] + q[i + 1, j + 2] + q[i + 1, j]
                              - 4.0 * q[i + 1, j + 1] for j in range(height)]
                             for i in range(width)]
                assert np.array_equal(lap, pointwise)


def test_laplacian_of_constant_vanishes_inside():
    # interior rows see only the constant; edge rows see the pinned ghosts
    u = LatticeField(np.full((5, 4), 0.25))
    lap = laplacian(u)
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
    # β² - 1 = α = (|∂⁺s|² + |∂⁻s|²)/2 >= 0, so the slope factor β >= 1
    rng = np.random.default_rng(7)
    s = PhaseSequence(rng.normal(size=32))
    dp, dm = d_plus(s), d_minus(s)
    assert np.max(np.abs(alpha(s) - 0.5 * (dp * dp + dm * dm))) < 1e-12
    assert np.all(alpha(s) >= 0.0)
    assert np.all(np.sqrt(1.0 + alpha(s)) >= 1.0)


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
