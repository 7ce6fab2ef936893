"""Travelling-wave solver: independent speed oracle, frozen values, structure."""

import warnings

import numpy as np
import pytest

from acfront.core import BistableNonlinearity
from acfront.errors import OutOfRange, PinningDetected
from acfront.wave import (WaveProfile, adjoint_solve, c_theta, compute_d,
                          dispersion, load_wave, mfde_residual, phi_inverse,
                          save_wave, solve_r, solve_wave)


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


def test_tilted_speed_symmetric_and_frozen_dispersion(wave03):
    w = wave03
    assert c_theta(w, 0.0) == pytest.approx(w.c, abs=1e-12)
    assert c_theta(w, 0.1) == pytest.approx(c_theta(w, -0.1), abs=1e-10)
    assert dispersion(w, 0.1) == pytest.approx(-0.281061340537, abs=1e-9)
    with pytest.raises(OutOfRange):
        c_theta(w, 0.5)


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
    with pytest.raises(OutOfRange):
        phi_inverse(w, 0.0)
    with pytest.raises(OutOfRange):
        phi_inverse(w, 1.0)


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


def test_zero_tail_rate_is_a_hard_clamp(wave03):
    w = wave03
    clamped = WaveProfile(f=w.f, L=w.L, h=w.h, xi=w.xi, phi=w.phi, c=w.c,
                          rho=(0.0, 0.0))
    outside = np.array([-25.0, 25.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clamped.phi_at(outside).tolist() == [0.0, 1.0]
        assert clamped.phi_at(outside, 1).tolist() == [0.0, 0.0]
    inside = np.linspace(-w.L, w.L, 9)
    for nu in (0, 1):
        assert np.array_equal(clamped.phi_at(inside, nu), w.phi_at(inside, nu))


def test_save_load_round_trip(tmp_path, wave03):
    path = tmp_path / "wave.json"
    save_wave(wave03, str(path))
    back = load_wave(str(path))
    assert back.c == wave03.c
    assert back.d == wave03.d
    assert back.rho == wave03.rho
    assert np.array_equal(back.phi, wave03.phi)
    assert np.array_equal(back.psi, wave03.psi)
    assert np.array_equal(back.r, wave03.r)
    assert np.array_equal(back.xi, wave03.xi)


def test_save_load_table_nonlinearity(tmp_path):
    f = BistableNonlinearity(a=0.3)
    u = np.linspace(-0.5, 1.5, 513)
    tab = BistableNonlinearity(a=0.3, kind="table", table_u=u, table_g=f(u))
    w = solve_wave(tab)
    path = tmp_path / "wave_table.json"
    save_wave(w, str(path))
    back = load_wave(str(path))
    assert back.f.kind == "table"
    assert np.array_equal(back.f.table_u, u)
    assert np.array_equal(back.phi, w.phi)
    assert back.c == pytest.approx(w.c, abs=1e-12)


def test_mfde_residual_detects_wrong_speed(wave03):
    w = wave03
    wrong = mfde_residual(w, c=w.c * 1.01)
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


def _table_cubic(a):
    f = BistableNonlinearity(a=a)
    u = np.linspace(-0.5, 1.5, 513)
    return BistableNonlinearity(a=a, kind="table", table_u=u, table_g=f(u))


@pytest.mark.parametrize("f", [BistableNonlinearity(a=a) for a in (0.15, 0.25, 0.35, 0.45)]
                         + [_table_cubic(0.3)], ids=["a0.15", "a0.25", "a0.35", "a0.45", "table"])
def test_corrector_defining_properties(f):
    w = solve_wave(f)
    compute_d(w)
    r = solve_r(w)
    rhs = -w.phi_second_grid() - w.d * w.phi_prime_grid()
    assert np.max(np.abs(w.linearization() @ r - rhs)) < 1e-7
    assert abs(w.pairing(w.psi, r)) < 1e-10
    assert np.max(np.abs(w.r_at(w.xi) - r)) < 1e-14
