"""Travelling-wave solver: independent speed oracle, frozen values, structure."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import acfront
from acfront import wave
from acfront.core import BistableNonlinearity, PhaseSequence
from acfront.errors import (DegenerateKernel, NewtonDiverged, OutOfRange,
                            PinningDetected, SolveFailed)
from acfront.sim import SimConfig, SuperSubSpec, verify_supersub
from acfront.wave import (_D1_COEF, WaveProfile, _Band, _deriv_pieces, _interp_pieces,
                          _second_deriv_pieces, _stencil_affine, _tail_rate,
                          adjoint_solve,
                          c_theta, compute_d, dispersion, load_wave,
                          mfde_residual, phi_inverse, save_wave, solve_r,
                          solve_wave)


def lde_front_speed_rk4(a, n=192, t_end=170.0, dt=0.02, fit_from=20.0):
    """Independent speed oracle: RK4 time stepping of the 1D lattice equation
    from a step, tracking the half-level crossing by linear interpolation and
    fitting its drift by least squares (averages out the sub-cell wobble)."""

    def rhs(u):
        up = np.append(u[1:], 1.0)
        um = np.append(0.0, u[:-1])
        return up + um - 2.0 * u + u * (1.0 - u) * (u - a)

    u = np.where(np.arange(n) >= n // 2, 1.0, 0.0).astype(float)
    steps = int(round(t_end / dt))
    times, pos = [], []
    for k in range(1, steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = k * dt
        if t >= fit_from and k % 50 == 0:
            hit = int(np.where((u[:-1] <= 0.5) & (u[1:] > 0.5))[0][0])
            frac = (0.5 - u[hit]) / (u[hit + 1] - u[hit])
            times.append(t)
            pos.append(hit + frac)
    return float(np.polyfit(times, pos, 1)[0])


def test_speed_against_independent_tracking_oracle(wave03):
    oracle = lde_front_speed_rk4(0.3)
    assert abs(oracle - wave03.c) / abs(wave03.c) < 1e-3


def test_frozen_speed_and_decay_rates(wave03):
    assert wave03.c == pytest.approx(-0.279590404792108, abs=1e-12)
    assert wave03.rho[0] == pytest.approx(0.9579091151476608, abs=1e-12)
    assert wave03.rho[1] == pytest.approx(0.9573952061299517, abs=1e-12)


def test_residual_small_across_detunings(wave03):
    assert np.max(np.abs(mfde_residual(wave03))) < 1e-9
    for a in (0.25, 0.35):
        w = solve_wave(BistableNonlinearity(a=a))
        assert np.max(np.abs(mfde_residual(w))) < 1e-9


def test_profile_monotone_with_correct_limits(wave03):
    w = wave03
    assert np.all(np.diff(w.phi) > 0.0)
    assert 0.0 < w.phi[0] < 1e-3
    assert 0.0 < 1.0 - w.phi[-1] < 1e-3
    k0 = w.n // 2
    assert w.phi[k0] == pytest.approx(0.5, abs=1e-12)


def test_mirror_symmetry_of_speed():
    c_low = solve_wave(BistableNonlinearity(a=0.4)).c
    c_high = solve_wave(BistableNonlinearity(a=0.6)).c
    assert c_low == pytest.approx(-c_high, abs=1e-6)


def test_balanced_detuning_detects_pinning():
    with pytest.raises(PinningDetected):
        solve_wave(BistableNonlinearity(a=0.5))


def test_near_balanced_detuning_converges_below_the_pinning_threshold():
    """Newton converges at a = 0.49995, but to a speed below the pinning
    threshold, which is refused as pinning too."""
    with pytest.raises(PinningDetected, match=r"^converged speed \|c\|=6.98e-05 below "
                                              "threshold 0.0001"):
        solve_wave(BistableNonlinearity(a=0.49995))


def test_short_window_does_not_reach_equilibria():
    with pytest.raises(NewtonDiverged, match="does not reach the equilibria"):
        solve_wave(BistableNonlinearity(a=0.3), L=2.0)


@pytest.mark.parametrize("L, h", [(20.0, 0.0), (20.0, -0.0625), (20.0, float("nan")),
                                  (20.0, float("inf")), (float("inf"), 0.0625),
                                  (float("nan"), 0.0625)])
def test_non_finite_or_nonpositive_grid_is_rejected(L, h):
    with pytest.raises(ValueError, match="L must be finite and h positive and finite"):
        solve_wave(BistableNonlinearity(a=0.3), L=L, h=h)


def test_missing_corrector_is_solve_failed():
    w = solve_wave(BistableNonlinearity(a=0.3))
    with pytest.raises(SolveFailed, match="has not been solved"):
        w.r_at(0.0)
    spec = SuperSubSpec(kind="curved", V0=PhaseSequence(np.zeros(8)))
    with pytest.raises(SolveFailed, match="needs the corrector r"):
        verify_supersub(spec, w, SimConfig(w.f), [1.0])


def test_curved_verification_without_d_is_solve_failed(wave03):
    """A wave with its corrector but no drift ``d`` is refused by name, not
    with the ``TypeError`` of a ``FlowParams`` built from ``d=None``."""
    w = dataclasses.replace(wave03, d=None)
    spec = SuperSubSpec(kind="curved", V0=PhaseSequence(np.zeros(8)))
    with pytest.raises(SolveFailed, match="needs the corrector r and the drift d"):
        verify_supersub(spec, w, SimConfig(w.f), [1.0])


def test_solve_r_solves_a_missing_psi(wave03):
    """A wave with ``d`` but no ``psi`` (a file without its psi record) has
    both solved again before the corrector, which is the session wave's."""
    w = dataclasses.replace(wave03, psi=None, r=None)
    r = solve_r(w)
    assert w.psi.tobytes() == wave03.psi.tobytes() and w.d == wave03.d
    assert r.tobytes() == wave03.r.tobytes()


def test_adjoint_rejects_degenerate_kernel(wave03, monkeypatch):
    # a ramp is no wave: its adjoint is nonsingular, so the bordered solve
    # returns a vector that is not a kernel element
    ramp = np.linspace(0.0, 1.0, wave03.n)
    for phi in (ramp, ramp[::-1]):
        w = dataclasses.replace(wave03, phi=phi)
        with pytest.raises(DegenerateKernel, match="not a kernel element"):
            adjoint_solve(w)
    # a flat profile with unit tail ratios has Phi' = 0 exactly, so the
    # border vanishes and the bordered matrix is singular
    w = dataclasses.replace(wave03, phi=np.zeros(wave03.n), rho=(1.0, 1.0))
    assert not np.any(w.phi_prime_grid())
    with pytest.raises(DegenerateKernel, match="not simple or not transverse"):
        adjoint_solve(w)
    solve = wave._bordered_solve
    monkeypatch.setattr(wave, "_bordered_solve", lambda *args: -solve(*args))
    with pytest.raises(DegenerateKernel, match="not strictly positive"):
        adjoint_solve(dataclasses.replace(wave03, psi=None))


def test_adjoint_rejects_window_too_short_for_its_tails():
    """At a = 0.3, L = 10 Newton converges and the profile reaches its
    equilibria, but the adjoint residual ratio is 3.1e-9 and d is off by
    1.7e-4; L = 14 (2.3e-12) is refused too, L = 16 (6.3e-14) passes."""
    f = BistableNonlinearity(a=0.3)
    for L in (10.0, 14.0):
        with pytest.raises(DegenerateKernel, match="adjoint residual ratio"):
            adjoint_solve(solve_wave(f, L=L))
    adjoint_solve(solve_wave(f, L=16.0))


def test_bordered_solve_maps_exact_singularity_to_the_callers_error():
    col = row = np.ones(3)
    x = wave._bordered_solve(_Band(np.array([[1.0, 2.0, 4.0]])), col, row,
                             np.array([1.0, 2.0, 4.0, 0.0]), SolveFailed("singular"))
    assert x == pytest.approx([-5.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0, 12.0 / 7.0], abs=1e-15)
    # diag(1, 0, 0) has a two-dimensional kernel; one border cannot close it
    with pytest.raises(SolveFailed, match="^singular$"):
        wave._bordered_solve(_Band(np.array([[1.0, 0.0, 0.0]])), col, row, np.ones(4),
                             SolveFailed("singular"))


def band_dense(A: _Band) -> np.ndarray:
    """The dense form of ``A``; its slots off the matrix must hold 0."""
    n = A.data.shape[1]
    out = np.zeros((n, n))
    rows = np.arange(n)
    for k, diag in enumerate(A.data):
        cols = rows + k - A.width
        on = (cols >= 0) & (cols < n)
        assert not np.any(diag[~on])
        out[rows[on], cols[on]] = diag[on]
    return out


def band_matmul_loop(A: _Band, x: np.ndarray) -> np.ndarray:
    """``A @ x`` as a loop over the diagonals, adding one whole diagonal's
    products at a time, so each row sums its slots in column order."""
    n, w = A.data.shape[1], A.width
    xp = np.zeros(n + 2 * w)
    xp[w:w + n] = x
    out = A.data[0] * xp[:n]
    for k in range(1, 2 * w + 1):
        out += A.data[k] * xp[k:k + n]
    return out


@settings(max_examples=100, deadline=None)
@given(width=st.sampled_from([0, 2, 3, 16, 17]), n=st.integers(1, 700), data=st.data())
def test_band_product_matches_the_diagonal_loop_bitwise(width, n, data):
    """``_Band.__matmul__`` equals the loop over diagonals byte for byte on
    random bands of the widths the solver builds (the second and first
    derivative, the unit shifts at h = 1/16, a fractional shift), with
    entries spread over 12 decades and about a third of them signed
    zeros."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def draw(shape):
        v = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
        return np.where(rng.random(shape) < 0.35, rng.choice([0.0, -0.0], size=shape), v)

    diags = draw((2 * width + 1, n))
    cols = np.arange(n) + np.arange(-width, width + 1)[:, None]
    diags[(cols < 0) | (cols >= n)] = 0.0
    A, x = _Band(diags), draw(n)
    assert (A @ x).tobytes() == band_matmul_loop(A, x).tobytes()


EPS = np.finfo(float).eps


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), width=st.integers(0, 8), data=st.data())
def test_bordered_solve_is_backward_stable(n, width, data):
    """On a random banded ``A``, stored with half-bandwidth ``width`` (the
    block size) and of bandwidth at most that, and a random border, the
    solve reaches a normwise backward error of at most 8 eps and agrees with
    ``np.linalg.solve`` on the dense bordered matrix.  With row ``i`` of the
    bordered matrix zeroed the system is exactly singular, and the solve
    raises the caller's error."""
    band = data.draw(st.integers(0, width))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    diags = rng.normal(size=(2 * width + 1, n))
    diags[np.abs(np.arange(-width, width + 1)) > band] = 0.0
    cols = np.arange(n) + np.arange(-width, width + 1)[:, None]
    diags[(cols < 0) | (cols >= n)] = 0.0
    A = _Band(diags)
    col, row, rhs = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n + 1)
    B = np.block([[band_dense(A), col[:, None]], [row[None, :], np.zeros((1, 1))]])
    cond = np.linalg.cond(B, np.inf)
    assume(cond < 1e8)
    x = wave._bordered_solve(A, col, row, rhs, SolveFailed("singular"))
    omega = (np.max(np.abs(rhs - B @ x))
             / (np.abs(B).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(rhs))))
    assert omega <= 8.0 * EPS
    ref = np.linalg.solve(B, rhs)
    assert np.max(np.abs(x - ref)) <= 16.0 * EPS * cond * np.max(np.abs(ref))
    i = data.draw(st.integers(0, n - 1))
    diags[:, i] = 0.0
    col[i] = 0.0
    with pytest.raises(SolveFailed, match="^singular$"):
        wave._bordered_solve(A, col, row, rhs, SolveFailed("singular"))


def test_adjoint_positive_normalized_frozen_d(wave03):
    w = wave03
    assert np.all(w.psi > 0.0)
    assert w.pairing(w.psi, w.phi_prime_grid()) == pytest.approx(1.0, abs=1e-12)
    assert w.d == pytest.approx(-0.146568639309, abs=1e-9)


def test_corrector_solves_inhomogeneous_problem(wave03):
    w = wave03
    A = w.linearization()
    rhs = -w.phi_second_grid() - w.d * w.phi_prime_grid()
    assert np.max(np.abs(A @ w.r - rhs)) < 1e-7
    assert abs(w.pairing(w.psi, w.r)) < 1e-10
    assert np.max(np.abs(w.r)) == pytest.approx(0.1624, abs=2e-3)


def test_wave_bits_do_not_depend_on_the_blas_thread_count(wave03):
    """A single-threaded BLAS reproduces c, d, c_theta, psi and r bit for bit."""
    code = ("from acfront import BistableNonlinearity, solve_r, solve_wave\n"
            "from acfront.wave import c_theta\n"
            "w = solve_wave(BistableNonlinearity(a=0.3))\n"
            "solve_r(w)\n"
            "print(w.c.hex(), w.d.hex(), c_theta(w, 0.1).hex(),\n"
            "      float(w.psi.sum()).hex(), float(w.r.sum()).hex())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(acfront.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    w = wave03
    assert out == [w.c.hex(), w.d.hex(), c_theta(w, 0.1).hex(),
                   float(w.psi.sum()).hex(), float(w.r.sum()).hex()]


def test_tilted_speed_symmetric_and_frozen_dispersion(wave03):
    w = wave03
    assert c_theta(w, 0.0) == pytest.approx(w.c, abs=1e-12)
    assert c_theta(w, 0.1) == pytest.approx(c_theta(w, -0.1), abs=1e-10)
    assert dispersion(w, 0.1) == pytest.approx(-0.281061340537, abs=1e-9)
    for theta in (0.5, float("nan")):
        with pytest.raises(OutOfRange):
            c_theta(w, theta)


def test_curvature_coefficient_identity(wave03):
    # d = c/2 + (1/2) d^2c/dtheta^2 at theta = 0
    w = wave03
    for eps in (0.05, 0.1):
        cpp = (c_theta(w, eps) + c_theta(w, -eps) - 2.0 * w.c) / eps ** 2
        d_est = 0.5 * w.c + 0.5 * cpp
        assert abs(d_est - w.d) / abs(w.d) < 1e-2


def test_profile_inverse_round_trip(wave03):
    w = wave03
    xs = np.linspace(-5.0, 5.0, 21)
    back = phi_inverse(w, w.phi_at(xs))
    assert np.max(np.abs(back - xs)) < 1e-8
    assert phi_inverse(w, 0.5) == pytest.approx(0.0, abs=1e-10)
    for v in (0.0, 1.0, float("nan"), [0.5, float("nan")]):
        with pytest.raises(OutOfRange):
            phi_inverse(w, v)


def phi_inverse_bisection(w, v):
    """Oracle inverse: 64 rounds of bracketing bisection on the profile
    spline, each round one spline call."""
    hi_idx = np.searchsorted(w.phi, v)
    lo, hi = w.xi[hi_idx - 1], w.xi[hi_idx]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = w._phi_spline(mid) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# Both inverses leave a residual of ~1e-16 in Phi, so on the interior pieces
# xi may differ by ~2e-16 / Phi'(xi); XI_TOL bounds that gap in Phi, and the
# xi tolerance there is XI_TOL / Phi'(xi).  On the two end pieces the clamped
# spline is flat (Phi' = 0 at +-L, |Phi''| >= 3.2e-5 at a = 0.3), and a
# residual of 2.2e-16 holds on an interval ~4e-6 wide: XI_TOL_FLAT_ENDS.
XI_TOL = 1e-15
XI_TOL_FLAT_ENDS = 1e-5


@settings(max_examples=300)
@given(data=st.data())
def test_phi_inverse_newton_property(wave03, data):
    w = wave03
    lo, hi = np.nextafter(w.phi[0], 1.0), np.nextafter(w.phi[-1], 0.0)
    v = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([lo, hi]), st.sampled_from(list(w.phi[1:-1])),
                  st.floats(lo, hi)), min_size=1, max_size=32)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi = phi_inverse(w, v)
    k = np.searchsorted(w.phi, v) - 1
    assert np.all((w.xi[k] <= xi) & (xi <= w.xi[k + 1]))
    assert np.max(np.abs(w._phi_spline(xi) - v)) < 1e-12
    tol = np.full(v.shape, XI_TOL_FLAT_ENDS)
    inner = (k > 0) & (k < w.n - 2)
    tol[inner] = XI_TOL / w._phi_spline(xi[inner], 1)
    assert np.all(np.abs(xi - phi_inverse_bisection(w, v)) <= tol)


def test_phi_inverse_keeps_the_input_shape(wave03):
    v = np.array([[0.2, 0.4], [0.6, 0.8]])
    xi = phi_inverse(wave03, v)
    assert xi.shape == v.shape
    scalars = np.array([[phi_inverse(wave03, float(x)) for x in row] for row in v])
    assert xi.tobytes() == scalars.tobytes() == phi_inverse(wave03, v.ravel()).tobytes()
    assert phi_inverse(wave03, np.empty((0, 3))).shape == (0, 3)


def test_replace_rebuilds_the_splines(wave03):
    """``dataclasses.replace`` builds both splines from the new ``phi`` and
    ``r``, not the ones of the profile it copies."""
    ramp = np.linspace(0.0, 1.0, wave03.n)
    w = dataclasses.replace(wave03, phi=ramp, r=2.0 * wave03.r)
    assert w.phi_at(5.0) == pytest.approx(0.625, abs=1e-12)
    assert phi_inverse(w, 0.6) == pytest.approx(4.0, abs=1e-12)
    assert w.r_at(1.3) == 2.0 * wave03.r_at(1.3)
    with pytest.raises(SolveFailed, match="has not been solved"):
        dataclasses.replace(wave03, r=None).r_at(0.0)


def tail_rate_brentq(f, c, shifts, h, side):
    """Reference tail exponent: ``scipy.optimize.brentq`` on the
    characteristic function, bracketed as ``_tail_rate`` brackets it."""
    from scipy.optimize import brentq

    gp = f.dg(0.0) if side == "left" else f.dg(1.0)
    sgn = 1.0 if side == "left" else -1.0

    def chi(lam):
        mu = sgn * lam
        deriv = sum(coef * (math.exp(mu * h * off) - math.exp(-mu * h * off))
                    for off, coef in enumerate(_D1_COEF, start=1)) * c / h
        shift = sum(math.exp(mu * alpha) for alpha in shifts) - len(shifts)
        return deriv + shift + gp

    hi = 0.25
    while chi(hi) < 0.0:
        hi *= 2.0
    return brentq(chi, 1e-8, hi, xtol=1e-14, rtol=1e-14)


@pytest.mark.parametrize("shifts", [(1.0, -1.0),
                                    (math.cos(0.2), math.sin(0.2),
                                     -math.cos(0.2), -math.sin(0.2))])
def test_tail_rate_matches_brentq(shifts):
    h = 1.0 / 16.0
    for a in np.linspace(0.05, 0.95, 19):
        f = BistableNonlinearity(a=float(a))
        c = math.sqrt(2.0) * (a - 0.5)
        for side in ("left", "right"):
            lam = -math.log(_tail_rate(f, c, shifts, h, side)) / h
            assert abs(lam - tail_rate_brentq(f, c, shifts, h, side)) <= 1e-14


def test_tail_rate_refuses_a_tail_with_no_decaying_mode():
    h = 1.0 / 16.0
    # chi(1e-8) >= 0: the equilibrium is not linearly stable
    unstable = types.SimpleNamespace(dg=lambda u: 0.1)
    for side in ("left", "right"):
        with pytest.raises(SolveFailed, match=f"^no decaying tail mode on the {side} "
                                              "at c=0.5 with a rate above 1e-8$"):
            _tail_rate(unstable, 0.5, (1.0, -1.0), h, side)
    # without shifts, a speed against the tail keeps chi < 0 past 64
    f = BistableNonlinearity(a=0.3)
    for c, side in ((-1.0, "left"), (1.0, "right")):
        with pytest.raises(SolveFailed, match=f"^no decaying tail mode on the {side} at "
                                              f"c={c:g} with a rate below 64$"):
            _tail_rate(f, c, (), h, side)
    assert _tail_rate(f, 1.0, (), h, "left") > 0.0


def test_profile_tails_exponential_and_bounded(wave03):
    w = wave03
    left = w.phi_at(np.array([-25.0, -30.0, -40.0]))
    right = w.phi_at(np.array([25.0, 30.0, 40.0]))
    assert np.all(left > 0.0) and np.all(np.diff(left) < 0.0)
    assert np.all(right < 1.0) and np.all(np.diff(right) > 0.0)
    # decay per unit distance matches the tail rate rho^(1/h)
    lam = -np.log(w.rho[0]) / w.h
    ratio = w.phi_at(-26.0) / w.phi_at(-25.0)
    assert ratio == pytest.approx(np.exp(-lam), rel=1e-12)


def stencil_affine_loop(n, pieces, rho_l, rho_r, right_target):
    """Reference tail closure: one pass per stencil piece, in piece order."""
    M = np.zeros((n, n))
    b = np.zeros(n)
    rows = np.arange(n)
    for off, wgt in pieces:
        cols = rows + off
        inside = (cols >= 0) & (cols < n)
        M[rows[inside], cols[inside]] += wgt
        left = cols < 0
        M[rows[left], 0] += wgt * rho_l ** (-cols[left])
        right = cols > n - 1
        decay = rho_r ** (cols[right] - (n - 1))
        M[rows[right], n - 1] += wgt * decay
        b[rows[right]] += wgt * right_target * (1.0 - decay)
    return M, b


@pytest.mark.parametrize("rho_l, rho_r, right_target",
                         [(0.7, 0.4, 1.0), (0.01, 0.99, 1.0), (0.99, 0.01, 0.0)])
def test_stencil_affine_matches_loop_bitwise(rho_l, rho_r, right_target):
    h = 1.0 / 4.0
    pieces = (_deriv_pieces(h) + _second_deriv_pieces(h) + _interp_pieces(0.3, h)
              + _interp_pieces(-2.6, h) + [(0, -2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M, b = _stencil_affine(12, pieces, rho_l, rho_r, right_target)
    M_ref, b_ref = stencil_affine_loop(12, pieces, rho_l, rho_r, right_target)
    assert isinstance(M, _Band) and M.width == max(abs(off) for off, _ in pieces)
    assert band_dense(M).tobytes() == M_ref.tobytes()
    assert b.tobytes() == b_ref.tobytes()


def test_wave_operators_are_banded_sparse(wave03, monkeypatch):
    """The linearization and the adjoint operator reach the bordered solve
    as banded matrices, of bandwidth 1/h (the unit shifts), with at most one
    entry per stencil piece in each row: six of the derivative, the two unit
    shifts and the diagonal."""
    seen = []
    solve = wave._bordered_solve

    def spy(A, *args):
        seen.append(A)
        return solve(A, *args)

    monkeypatch.setattr(wave, "_bordered_solve", spy)
    adjoint_solve(dataclasses.replace(wave03, psi=None))
    for A in (seen[0], wave03.linearization()):
        assert isinstance(A, _Band) and A.data.shape == (2 * A.width + 1, wave03.n)
        assert A.width == round(1.0 / wave03.h)
        assert np.count_nonzero(band_dense(A), axis=1).max() <= 9


def test_save_load_round_trip(tmp_path, wave03):
    path = tmp_path / "wave.json"
    save_wave(wave03, str(path))
    back = load_wave(str(path))
    assert back.f == wave03.f
    assert back.c == wave03.c
    assert back.d == wave03.d
    assert back.rho == wave03.rho
    assert np.array_equal(back.phi, wave03.phi)
    assert np.array_equal(back.psi, wave03.psi)
    assert np.array_equal(back.r, wave03.r)
    assert np.array_equal(back.xi, wave03.xi)


def test_load_refuses_a_file_of_array_records_only(tmp_path, wave03):
    path = tmp_path / "wave.json"
    save_wave(wave03, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="file does not contain a wave profile$"):
        load_wave(str(path))


def test_load_accepts_a_file_that_names_the_cubic_kind(tmp_path, wave03):
    """Files written before the nonlinearity became the cubic alone carry
    ``"kind": "cubic"``; they load as before."""
    path = tmp_path / "wave.json"
    save_wave(wave03, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])
    assert "kind" not in meta
    meta["kind"] = "cubic"
    path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n", encoding="utf-8")
    back = load_wave(str(path))
    assert back.f == wave03.f and np.array_equal(back.phi, wave03.phi)


def test_mfde_residual_detects_wrong_speed(wave03):
    wrong = mfde_residual(dataclasses.replace(wave03, c=1.01 * wave03.c))
    assert np.max(np.abs(wrong)) > 1e-5


def test_first_derivatives_match_central_differences(wave03):
    w = wave03
    lo, hi = w.xi[0], w.xi[-1]
    near_ends = np.array([lo - 1e-3, lo + 1e-3, -3.0, 0.0, 2.5, hi - 1e-3, hi + 1e-3])
    # the right tail is read where 1 - Phi still resolves a difference
    # quotient in binary64; the step is wider there since the tail is smooth
    tails = np.array([-44.0, -35.0, 22.0, 25.0])
    for value, deriv in ((w.phi_at, lambda x: w.phi_at(x, 1)),
                         (w.r_at, lambda x: w.r_at(x, 1))):
        eps = 1e-5
        cd = (value(near_ends + eps) - value(near_ends - eps)) / (2.0 * eps)
        assert np.max(np.abs(deriv(near_ends) - cd)) < 1e-8
        eps = 1e-2
        cd = (value(tails + eps) - value(tails - eps)) / (2.0 * eps)
        assert np.all(np.abs(deriv(tails) - cd) <= 1e-4 * np.abs(cd))
    for edge, value in ((lo, w.phi[0]), (hi, w.phi[-1])):
        assert w.phi_at(edge + np.array([-1e-9, 1e-9])) == pytest.approx(value, abs=1e-9)
    assert w.r_at(lo - 1.0, 1) == 0.0 and w.r_at(hi + 1.0) == 0.0
    with pytest.raises(ValueError):
        w.phi_at(0.0, 2)


@pytest.mark.parametrize("f", [BistableNonlinearity(a=a) for a in (0.15, 0.25, 0.35, 0.45)],
                         ids=["a0.15", "a0.25", "a0.35", "a0.45"])
def test_corrector_defining_properties(f):
    w = solve_wave(f)
    compute_d(w)
    r = solve_r(w)
    rhs = -w.phi_second_grid() - w.d * w.phi_prime_grid()
    assert np.max(np.abs(w.linearization() @ r - rhs)) < 1e-7
    assert abs(w.pairing(w.psi, r)) < 1e-10
    assert np.max(np.abs(w.r_at(w.xi) - r)) < 1e-14
