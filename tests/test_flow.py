"""Bessel/heat machinery and the reduced phase flows."""

import csv
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from mpmath import mp

from acfront.core import PhaseSequence, alpha, d2, d_minus, d_plus
from acfront.errors import FlatnessViolated, NonFinite, OutOfRange, OverflowGuard
from acfront.flow import (FlowParams, _decay_norms, bessel_bounds_report, decay_report,
                          heat_kernel, heat_solve, mcf_rhs, mcf_solve,
                          report_to_ndjson, trajectory_to_csv, v_gradient_report,
                          v_rhs, v_solve)
from acfront.harness import splitmix64_uniform

C_REF = -0.279590404792108
D_REF = -0.146568639309


def bessel_series_oracle(k: int, t: float) -> float:
    """High-precision power series for e^{-t} I_k(t), independent of the
    backward recurrence behind the heat kernel."""
    mp.dps = 40
    x = mp.mpf(t) / 2
    total = mp.mpf(0)
    term_floor = mp.mpf(10) ** (-mp.dps - 5)
    for m in range(0, 2000):
        term = x ** (2 * m + k) / (mp.factorial(m) * mp.factorial(m + k))
        total += term
        if m > 4 and term < term_floor * total:
            break
    return float(total * mp.e ** (-mp.mpf(t)))


def kernel_bessel(k, t: float):
    """e^{-t} I_k(t) read off the heat kernel, G_k(t/2) = e^{-t} I_k(t)."""
    table = heat_kernel(t / 2.0)
    return table.values[table.kmax + np.asarray(k)]


def test_bessel_matches_series_oracle():
    for t in (5e-13, 1e-8, 1e-3, 0.1, 0.5, 2.0, 10.0, 100.0):
        for k in (0, 1, 3, 10):
            got = kernel_bessel(k, t)
            want = bessel_series_oracle(k, t)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_bessel_matches_scipy_scaled():
    # both halves of the symmetric table against the scaled Bessel ladder
    ks = np.arange(0, 40)
    for t in (5e-13, 1e-8, 1e-3, 0.1, 0.5, 1.0, 7.0, 50.0, 300.0):
        want = scipy.special.ive(ks, t)
        assert np.max(np.abs(kernel_bessel(ks, t) - want)) < 1e-12
        assert np.max(np.abs(kernel_bessel(-ks, t) - want)) < 1e-12


def test_kernel_tail_taps_match_mpmath_relative():
    """The taps keep their relative accuracy down to ~1e-300, the scale
    Cole-Hopf reads: G_k(t) = e^{-2t} I_k(2t) against mpmath's Bessel
    function at 50 digits, at every fifth order up to the last tap above 1e-300
    (``scipy.special.ive`` misses this bound on some of them)."""
    smallest = 1.0
    for t in (5.0, 100.0, 200.0):
        table = heat_kernel(t)
        half = table.values[table.kmax:]
        last = int(np.flatnonzero(half > 1e-300)[-1])
        with mp.workdps(50):
            x = mp.mpf(2.0 * t)
            for k in [*range(0, last, 5), last]:
                want = mp.besseli(k, x) * mp.exp(-x)
                assert abs(mp.mpf(half[k]) - want) <= 1e-13 * want, (t, k)
        smallest = min(smallest, half[last])
    assert smallest < 1e-299


def test_bessel_recurrence_identity_by_central_difference():
    # I_{k-1} + I_{k+1} = 2 I_k' on the scaled ladder s_k = e^{-t} I_k(t):
    # s_{k-1} + s_{k+1} = 2 (s_k' + s_k), at t=2, k=3
    eps = 1e-4
    lhs = kernel_bessel(2, 2.0) + kernel_bessel(4, 2.0)
    rhs = ((kernel_bessel(3, 2.0 + eps) - kernel_bessel(3, 2.0 - eps)) / eps
           + 2.0 * kernel_bessel(3, 2.0))
    assert abs(lhs - rhs) < 1e-8


def test_bessel_guards():
    nan = float("nan")
    h0 = PhaseSequence(np.zeros(4))
    for t in (-0.5, nan, float("inf")):
        with pytest.raises(OutOfRange, match="finite and nonnegative"):
            heat_kernel(t)
    for call in (lambda: bessel_bounds_report([1.0, -1.0]),
                 lambda: bessel_bounds_report([-5.0]),
                 lambda: bessel_bounds_report([nan]),
                 lambda: heat_solve(h0, nan),
                 lambda: v_solve(h0, FlowParams(c=C_REF, d=D_REF), t_grid=[nan]),
                 lambda: decay_report(h0, [nan])):
        with pytest.raises(OutOfRange, match="finite and nonnegative"):
            call()
    with pytest.raises(OutOfRange, match="at least one time"):
        bessel_bounds_report([])
    with pytest.raises(OutOfRange, match="at least one time"):
        decay_report(h0, [])


def test_kernel_mass_exact():
    for t in (0.0, 0.1, 0.5, 1.0, 5.0, 20.0, 100.0):
        assert abs(heat_kernel(t).mass() - 1.0) <= 4.5e-16


def test_kernel_symmetric_and_positive():
    table = heat_kernel(7.0)
    assert np.array_equal(table.values, table.values[::-1])
    assert np.all(table.values >= 0.0)
    assert table.k[0] == -table.kmax


def test_heat_solve_delta_reproduces_kernel():
    height = 64
    t = 3.0
    h0 = PhaseSequence(np.zeros(height))
    h0.values[10] = 1.0
    out = heat_solve(h0, t).values
    table = heat_kernel(t)
    folded = np.zeros(height)
    np.add.at(folded, np.mod(table.k + 10, height), table.values)
    assert np.max(np.abs(out - folded)) < 1e-15


def test_heat_solve_matches_matrix_exponential():
    # the heat LDE is h' = L h with L the discrete Laplacian under the
    # sequence's own ghost rule, so h(t) = expm(t L) h0
    rng = np.random.default_rng(3)
    for bc in ("periodic", "reflect"):
        h0 = PhaseSequence(rng.uniform(-1.0, 1.0, size=24), boundary_j=bc)
        lap = np.column_stack([d2(PhaseSequence(e, boundary_j=bc)) for e in np.eye(24)])
        want = scipy.linalg.expm(0.5 * lap) @ h0.values
        got = heat_solve(h0, 0.5).values
        assert np.max(np.abs(got - want)) < 1e-13


def test_heat_solve_conserves_mass_and_contracts():
    rng = np.random.default_rng(11)
    h0 = PhaseSequence(rng.uniform(-2.0, 2.0, size=48))
    h5 = heat_solve(h0, 5.0)
    assert np.sum(h5.values) == pytest.approx(np.sum(h0.values), abs=1e-12)
    assert np.max(np.abs(h5.values)) <= np.max(np.abs(h0.values))


def heat_solve_oracle(vals: np.ndarray, t: float, boundary_j: str) -> np.ndarray:
    """Explicit sum ``out[j] = sum_k G_k(t) vals[(j - k) mod P]`` over the
    kernel table, on the even extension for the reflect policy."""
    if boundary_j == "reflect":
        ext = np.concatenate([vals, vals[::-1]])
        return heat_solve_oracle(ext, t, "periodic")[: vals.size]
    table = heat_kernel(t)
    P = vals.size
    idx = np.mod(np.arange(P)[:, None] - table.k[None, :], P)
    return np.sum(table.values[None, :] * vals[idx], axis=1)


@settings(max_examples=60)
@given(vals=st.integers(1, 300).flatmap(
           lambda P: hnp.arrays(np.float64, P, elements=st.floats(-10.0, 10.0))),
       t=st.floats(0.0, 200.0),
       boundary_j=st.sampled_from(["periodic", "reflect"]))
def test_heat_solve_property_against_explicit_sum(vals, t, boundary_j):
    # periods down to 1 are shorter than the kernel, so the periodization
    # fold carries most of the mass
    got = heat_solve(PhaseSequence(vals, boundary_j=boundary_j), t).values
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert np.max(np.abs(got - heat_solve_oracle(vals, t, boundary_j))) <= 1e-12 * scale
    assert abs(np.sum(got) - np.sum(vals)) <= 1e-11 * scale * vals.size


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
@pytest.mark.parametrize("P, t", [(512, 3.0), (512, 40.0), (64, 200.0)])
def test_heat_solve_relative_accuracy_over_450_e_folds(P, t, boundary_j):
    # Cole-Hopf data e^{d (V - c t)} spans many orders of magnitude; a direct
    # sum of positive terms keeps each output to a few ulps of itself, where
    # an FFT's round-off, relative to the largest value, would not.  Kernels
    # both narrower (t = 3) and wider (t = 40 under periodic, t = 200) than
    # the period are covered.
    vals = np.exp(-450.0 * np.linspace(0.0, 1.0, P))
    got = heat_solve(PhaseSequence(vals, boundary_j=boundary_j), t).values
    want = heat_solve_oracle(vals, t, boundary_j)
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
@pytest.mark.parametrize("P", [1, 2, 7, 300])
def test_heat_solve_at_time_zero_is_identity(P, boundary_j):
    vals = 2.0 * splitmix64_uniform(P, P) - 1.0
    got = heat_solve(PhaseSequence(vals, boundary_j=boundary_j), 0.0).values
    assert got.tobytes() == vals.tobytes()


def test_gradient_norm_decay_is_monotone_exactly():
    # non-strict monotonicity of sup|d+ h(t)| with zero tolerance
    ts = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    for seed in range(20):
        h0 = PhaseSequence(2.0 * splitmix64_uniform(seed, 32) - 1.0)
        norms = [np.max(np.abs(d_plus(heat_solve(h0, t)))) for t in ts]
        assert all(b <= a for a, b in zip(norms, norms[1:]))


def test_decay_report_slopes_on_step_data():
    n = 2048
    vals = np.where(np.arange(n) < n // 2, 0.0, 4.0)
    vals += 0.5 * (splitmix64_uniform(2, n) - 0.5)
    h0 = PhaseSequence(vals, boundary_j="reflect")
    rep = decay_report(h0, np.geomspace(10.0, 1000.0, 13))
    assert abs(rep["slope_first"] + 0.5) <= 0.1
    assert abs(rep["slope_second"] + 1.0) <= 0.1
    assert rep["monotone_bound_holds"]
    assert rep["K_first"] < 10.0 and rep["K_second"] < 10.0


def test_decay_report_finite_with_zero_time():
    # t = 0 takes no part in the fit of K (no t^{-1/2} bound) or of the
    # log-log slopes (no logarithm)
    h0 = PhaseSequence(np.where(np.arange(64) < 32, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decay_report(h0, [0.0, 10.0, 100.0])
    for key in ("K_first", "K_second", "slope_first", "slope_second"):
        assert np.isfinite(rep[key]), key
    assert rep["t"] == [0.0, 10.0, 100.0]


def test_bessel_bounds_report_structure():
    rep = bessel_bounds_report([1.0, 5.0, 20.0, 100.0])
    assert rep["all_order_monotone"]
    assert rep["single_sign_change"]
    assert rep["max_telescope_error"] < 1e-10
    assert np.isfinite(rep["first_sum_bound"])
    assert np.isfinite(rep["second_sum_bound"])


def test_v_solve_cole_hopf_matches_euler():
    # flat phases: Euler truncation at dt=1e-3 stays below 1e-4
    p = FlowParams(c=C_REF, d=D_REF, dt=1e-3)
    vals = 0.25 * (2.0 * splitmix64_uniform(21, 32) - 1.0)
    V0 = PhaseSequence(vals)
    grid = [0.0, 1.0, 2.0]
    exact = v_solve(V0, p, t_grid=grid)
    euler = v_solve(V0, p, t_grid=grid, method="euler")
    assert np.max(np.abs(exact.values - euler.values)) < 1e-4


def test_v_solve_refuses_an_unknown_method():
    V0 = PhaseSequence(np.zeros(8))
    with pytest.raises(ValueError, match="^unknown method 'rk4'$"):
        v_solve(V0, FlowParams(c=C_REF, d=D_REF), t_grid=[1.0], method="rk4")


@settings(max_examples=100)
@given(ks=st.lists(st.integers(-2048, 2048), min_size=2, max_size=64),
       shift=st.integers(-2 ** 20, 2 ** 20),
       boundary_j=st.sampled_from(["periodic", "reflect"]))
def test_v_solve_translation_invariance_bitwise(ks, shift, boundary_j):
    # with anchor-zero data on a 2^-10 grid, V0 + shift is exact and a
    # constant shift commutes with the Cole-Hopf solve down to the last bit
    p = FlowParams(c=C_REF, d=D_REF)
    vals = np.asarray([0] + ks[1:], dtype=float) / 1024.0
    s = shift / 1024.0
    a = v_solve(PhaseSequence(vals + s, boundary_j=boundary_j), p, t_grid=[0.5, 2.0])
    b = v_solve(PhaseSequence(vals, boundary_j=boundary_j), p, t_grid=[0.5, 2.0])
    assert np.array_equal(a.values, b.values + s)


def test_v_solve_linear_heat_variant():
    p = FlowParams(c=0.5, d=0.0)
    assert p.variant == "linear_heat"
    j = np.arange(16)
    V0 = PhaseSequence(np.sin(2.0 * np.pi * j / 16.0))
    traj = v_solve(V0, p, t_grid=[0.0, 2.0])
    want = heat_solve(V0, 2.0).values + 0.5 * 2.0
    assert np.max(np.abs(traj.values[-1] - want)) < 1e-14


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_linear_heat_rhs_and_marcher_match_the_heat_route(boundary_j):
    """At d = 0 the phase LDE is the linear heat LDE: its right-hand side is
    ``∂⁽²⁾V + c`` bit for bit, and the explicit marcher converges to the
    heat-kernel route at fourth order in its substep."""
    p = FlowParams(c=0.5, d=0.0)
    j = np.arange(16)
    V0 = PhaseSequence(np.sin(2.0 * np.pi * j / 16.0) + 0.3 * np.cos(6.0 * np.pi * j / 16.0),
                       boundary_j=boundary_j)
    assert np.array_equal(v_rhs(V0, p), d2(V0) + 0.5)
    t_grid = [0.0, 1.0, 5.0]
    heat = v_solve(V0, p, t_grid=t_grid).values
    errs = [np.max(np.abs(v_solve(V0, FlowParams(c=0.5, d=0.0, dt=dt), t_grid=t_grid,
                                  method="euler").values - heat))
            for dt in (p.dt, p.dt / 2)]
    assert errs[0] < 1e-5 and errs[0] / errs[1] > 12.0


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
def test_decay_norms_equal_the_per_sequence_operators(boundary_j):
    rows = np.random.default_rng(3).normal(size=(5, 24))
    d1, d2n = _decay_norms(rows, boundary_j)
    seqs = [PhaseSequence(row, boundary_j=boundary_j) for row in rows]
    assert np.array_equal(d1, [np.max(np.abs(d_plus(s))) for s in seqs])
    assert np.array_equal(d2n, [np.max(np.abs(d2(s))) for s in seqs])


def test_v_solve_overflow_guard():
    p = FlowParams(c=C_REF, d=D_REF)
    V0 = PhaseSequence(np.array([0.0, 5000.0, 0.0, 5000.0]))
    with pytest.raises(OverflowGuard):
        v_solve(V0, p, t_grid=[1.0])


def test_v_rhs_flat_data_reduces_to_drift():
    p = FlowParams(c=C_REF, d=D_REF)
    V0 = PhaseSequence(np.full(8, 2.5))
    assert np.max(np.abs(v_rhs(V0, p) - p.c)) < 1e-15


def test_v_rhs_matches_two_exponential_formula():
    """One exponential per neighbour difference gives the two-exponential
    right-hand side up to rounding: within 1e-14 of the sum of the terms'
    magnitudes, the scale of the cancellation in ``e+ - 2 + e-``."""
    rng = np.random.default_rng(7)
    p = FlowParams(c=C_REF, d=D_REF)
    for V in (rng.normal(size=64), 40.0 * rng.normal(size=512),
              rng.uniform(-2000.0, 2000.0, size=256)):
        for boundary_j in ("periodic", "reflect"):
            q = PhaseSequence(V, boundary_j=boundary_j).padded()
            ep = np.exp(p.d * (q[2:] - q[1:-1]))
            em = np.exp(-p.d * (q[1:-1] - q[:-2]))
            want = (ep - 2.0 + em) / p.d + p.c
            scale = (ep + 2.0 + em) / abs(p.d) + abs(p.c)
            got = v_rhs(PhaseSequence(V, boundary_j=boundary_j), p)
            assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_v_gradient_report_decays():
    p = FlowParams(c=C_REF, d=D_REF)
    j = np.arange(32)
    V0 = PhaseSequence(np.sin(2.0 * np.pi * j / 8.0))
    rep = v_gradient_report(v_solve(V0, p, t_grid=np.linspace(0.0, 30.0, 31)))
    assert rep["monotone_bound_holds"]
    assert rep["d_plus_norm"][-1] < 1e-6


def test_mcf_forms_agree():
    # the 2d form against the anisotropic form β(∂⁽²⁾Γ/β³ + c + A(1 - 1/β)),
    # which coincides with it at A = 2d - c
    p = FlowParams(c=C_REF, d=D_REF)
    rng = np.random.default_rng(9)
    G = PhaseSequence(0.05 * rng.standard_normal(16))
    b = np.sqrt(1.0 + alpha(G))
    A = 2.0 * p.d - p.c
    anisotropic = b * (d2(G) / (b * b * b) + p.c + A * (1.0 - 1.0 / b))
    assert np.max(np.abs(mcf_rhs(G, p) - anisotropic)) < 1e-14


def test_mcf_matches_gradient_lde():
    # oracle: the gradient Υ = ∂⁺Γ of the curvature flow solves
    # Υ̇_j = ∂⁺Υ_j/Π_j² - ∂⁻Υ_j/Π_{j-1}² + 2d(Π_j - Π_{j-1}),
    # Π_j = sqrt(1 + (Υ_{j+1}² + Υ_j²)/2), on every recorded state
    p = FlowParams(c=C_REF, d=D_REF)
    j = np.arange(24)
    G0 = PhaseSequence(0.05 * np.sin(2.0 * np.pi * j / 24.0))
    mcf = mcf_solve(G0, p, np.linspace(0.0, 10.0, 6))
    for row in mcf.values:
        G = PhaseSequence(row)
        U = PhaseSequence(d_plus(G))
        q = U.padded()
        up, um, v = q[2:], q[:-2], q[1:-1]
        pi = np.sqrt(1.0 + 0.5 * (up * up + v * v))
        pi_m = np.sqrt(1.0 + 0.5 * (v * v + um * um))
        want = (d_plus(U) / (pi * pi) - d_minus(U) / (pi_m * pi_m)
                + 2.0 * p.d * (pi - pi_m))
        got = d_plus(PhaseSequence(mcf_rhs(G, p)))
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("boundary_j", ["periodic", "reflect"])
@pytest.mark.parametrize("solve", [
    mcf_solve, lambda y0, p, grid: v_solve(y0, p, grid, method="euler")],
    ids=["mcf_solve", "v_solve_euler"])
def test_flow_marcher_is_fourth_order_in_time(solve, boundary_j):
    """Halving the substep bound dt from 0.1 to 0.05 cuts the t = 10 error
    against dt = 1/256 by at least 12x (16x in the limit; an Euler marcher
    gives 2x)."""
    j = np.arange(32)
    y0 = PhaseSequence(0.05 * np.sin(2.0 * np.pi * j / 32.0) + 0.02 * np.cos(
        2.0 * np.pi * 3.0 * j / 32.0), boundary_j=boundary_j)

    def at_ten(dt):
        return solve(y0, FlowParams(c=C_REF, d=D_REF, dt=dt), [10.0]).values[-1]

    ref = at_ten(1.0 / 256)
    err1, err2 = (np.max(np.abs(at_ten(dt) - ref)) for dt in (0.1, 0.05))
    assert err1 >= 12.0 * err2 > 0.0


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
def test_flow_params_reject_nonpositive_or_nonfinite_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        FlowParams(c=C_REF, d=D_REF, dt=dt)
    if not np.isfinite(dt):
        # a non-finite c or d is bad input too, not a blow-up of the flow
        for c, d in ((dt, D_REF), (C_REF, dt)):
            with pytest.raises(ValueError, match="c and d must be finite"):
                FlowParams(c=c, d=d)


def test_mcf_flatness_guard():
    p = FlowParams(c=C_REF, d=D_REF)
    steep = PhaseSequence(np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(FlatnessViolated):
        mcf_solve(steep, p, [1.0])


def test_mcf_refuses_a_nan_or_nonpositive_delta():
    """A NaN delta would compare false and silently disable the guard; inf
    is the one way to turn it off."""
    p = FlowParams(c=C_REF, d=D_REF)
    steep = PhaseSequence(np.array([0.0, 1.0, 0.0, 1.0]))
    for delta in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="delta must be positive"):
            mcf_solve(steep, p, [1.0], delta=delta)
    assert len(mcf_solve(steep, p, [0.0, 1.0], delta=float("inf"))) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_euler_blowup_raises_nonfinite():
    j = np.arange(8)
    wave = np.sin(2.0 * np.pi * j / 8.0)
    with pytest.raises(NonFinite, match="blew up"):
        v_solve(PhaseSequence(2.0 * wave), FlowParams(c=-0.28, d=-3.0, dt=5.0),
                [0.0, 50.0], method="euler")
    with pytest.raises(NonFinite, match="blew up"):
        mcf_solve(PhaseSequence(0.01 * wave), FlowParams(c=-0.28, d=-3.0, dt=50.0),
                  [0.0, 5000.0], delta=np.inf)


@pytest.mark.parametrize("grid", [[2.0, 1.0], [0.0, -2.5, -5.0], [-1.0],
                                  [1.0, float("inf")], [float("nan")]])
def test_marching_solvers_reject_negative_or_decreasing_times(grid):
    p = FlowParams(c=C_REF, d=D_REF)
    G0 = PhaseSequence(0.01 * np.sin(2.0 * np.pi * np.arange(8) / 8.0))
    with pytest.raises(OutOfRange, match="nondecreasing"):
        mcf_solve(G0, p, grid)
    with pytest.raises(OutOfRange, match="nondecreasing"):
        v_solve(G0, p, grid, method="euler")


def test_v_gradient_report_rejects_empty_trajectory():
    traj = v_solve(PhaseSequence(np.zeros(4)), FlowParams(c=C_REF, d=D_REF), t_grid=[])
    with pytest.raises(OutOfRange, match="no recorded times"):
        v_gradient_report(traj)


def test_csv_and_ndjson_exports(tmp_path):
    p = FlowParams(c=C_REF, d=D_REF)
    traj = v_solve(PhaseSequence(np.zeros(3)), p, t_grid=[0.0, 1.0])
    tpath = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(tpath))
    with open(tpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "j", "value"]
    assert len(rows) == 1 + 2 * 3

    rep = {"verdict": "pass", "value": 1.0}
    npath = tmp_path / "rep.ndjson"
    report_to_ndjson(rep, str(npath))
    with open(npath) as fh:
        assert json.loads(fh.readline()) == rep
