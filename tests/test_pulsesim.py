"""Pulse simulator tests: Hamiltonian assembly, propagation, Lindblad
evolution against analytic and Liouvillian-exponential oracles and against
per-step reference integrators, fidelity metrics, and the bounded
optimizer."""
import math

import numpy as np
import pytest

from qasmtrans import gates, pulsesim as ps
from qasmtrans.errors import DimensionMismatch, InvalidStep, StepTooLarge
from qasmtrans.pulsesim import PulseModel

from conftest import phase_distance, random_unitary


# ---------------------------------------------------------------------------
# hamiltonian_at
# ---------------------------------------------------------------------------

def test_h_zero_controls():
    m = PulseModel(2, pairs=[(0, 1)])
    assert np.max(np.abs(ps.hamiltonian_at(m, 0.0))) == 0.0


def test_h_single_drive():
    m = PulseModel(1)
    m.i_ctrl[0].add_constant(0, 10, 0.4)
    assert np.allclose(ps.hamiltonian_at(m, 5.0), 0.2 * ps.SX)
    m.q_ctrl[0].add_constant(0, 10, 0.6)
    assert np.allclose(ps.hamiltonian_at(m, 5.0), 0.2 * ps.SX + 0.3 * ps.SY)


def test_h_coupling_eigenvalues():
    g = 0.05
    m = PulseModel(2, pairs=[(0, 1)])
    m.j_ctrl[(0, 1)].add_constant(0, 100, g)
    h = ps.hamiltonian_at(m, 1.0)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert np.sort(np.linalg.eigvalsh(h)) == pytest.approx([-g, 0.0, 0.0, g])


def test_h_hermitian_random_controls():
    rng = np.random.default_rng(0)
    m = PulseModel(2, pairs=[(0, 1)])
    for q in range(2):
        m.i_ctrl[q].add_fn(0, 20, lambda t: math.sin(0.3 * t))
        m.q_ctrl[q].add_constant(0, 20, rng.uniform(-0.3, 0.3))
    m.j_ctrl[(0, 1)].add_constant(0, 20, 0.1)
    for t in np.linspace(0, 19.9, 7):
        h = ps.hamiltonian_at(m, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def test_propagate_zero_hamiltonian_identity():
    m = PulseModel(2, pairs=[(0, 1)])
    assert np.allclose(ps.propagate(m, 25.0), np.eye(4))


def test_propagate_rabi_pi_pulse():
    omega = 0.3
    m = PulseModel(1)
    t_pi = math.pi / omega
    m.i_ctrl[0].add_constant(0, t_pi, omega)
    u = ps.propagate(m, t_pi)
    assert phase_distance(u, gates.matrix("x")) < 1e-6


def test_propagate_free_xy_evolution_is_iswap_family():
    g = 0.05
    m = PulseModel(2, pairs=[(0, 1)])
    t = math.pi / (2 * g)
    m.j_ctrl[(0, 1)].add_constant(0, t, g)
    u = ps.propagate(m, t)
    xxyy = 0.5 * g * (np.kron(ps.SX, ps.SX) + np.kron(ps.SY, ps.SY))
    w, v = np.linalg.eigh(xxyy)
    analytic = (v * np.exp(-1j * w * t)) @ v.conj().T
    assert np.max(np.abs(u - analytic)) < 1e-5
    # the +i-convention iSWAP is realized by the opposite coupler sign
    m2 = PulseModel(2, pairs=[(0, 1)])
    m2.j_ctrl[(0, 1)].add_constant(0, t, -g)
    assert phase_distance(ps.propagate(m2, t), gates.matrix("iswap")) < 1e-5


def test_propagator_unitary_at_default_dt():
    rng = np.random.default_rng(1)
    m = PulseModel(2, pairs=[(0, 1)])
    for q in range(2):
        m.i_ctrl[q].add_fn(0, 30, lambda t, a=rng.uniform(0.1, 0.4): a * math.sin(0.2 * t))
    m.j_ctrl[(0, 1)].add_constant(0, 30, 0.08)
    u = ps.propagate(m, 30.0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-6


def test_propagate_step_halving_second_order():
    # midpoint-Magnus is order 2: halving dt cuts the error about 4x
    def run(dt):
        m = PulseModel(1, dt_ns=dt)
        m.i_ctrl[0].add_fn(0, 20, lambda t: 0.3 * math.sin(0.7 * t))
        m.q_ctrl[0].add_fn(0, 20, lambda t: 0.2 * math.cos(0.9 * t))
        return ps.propagate(m, 20.0)

    ref = run(0.0125)
    err_h = np.max(np.abs(run(0.1) - ref))
    err_h2 = np.max(np.abs(run(0.05) - ref))
    assert err_h / err_h2 >= 3.4


# ---------------------------------------------------------------------------
# lindblad_evolve
# ---------------------------------------------------------------------------

def test_lindblad_zero_rates_matches_unitary_conjugation():
    rng = np.random.default_rng(3)
    m = PulseModel(2, pairs=[(0, 1)], dt_ns=0.01)
    for q in range(2):
        m.i_ctrl[q].add_constant(0, 20, rng.uniform(-0.2, 0.2))
        m.q_ctrl[q].add_constant(0, 20, rng.uniform(-0.2, 0.2))
    m.j_ctrl[(0, 1)].add_constant(0, 20, 0.06)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    rho0 = np.outer(psi, psi.conj())
    rho = ps.lindblad_evolve(m, rho0, 20.0)
    u = ps.propagate(m, 20.0)
    assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-8


def test_lindblad_t1_decay_analytic():
    kappa = 0.002
    m = PulseModel(1, kappa=[kappa], dt_ns=0.5)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    horizon = 400.0
    rho = ps.lindblad_evolve(m, rho0, horizon)
    assert abs(rho[1, 1].real - math.exp(-kappa * horizon)) < 1e-4
    assert abs(rho[0, 0].real - (1 - math.exp(-kappa * horizon))) < 1e-4


def test_lindblad_dephasing_matches_liouvillian_exponential():
    # independent oracle: exact matrix exponential of the 4x4 superoperator
    gamma = 0.0015
    horizon = 350.0
    m = PulseModel(1, gamma=[gamma], dt_ns=0.5)
    rho0 = np.ones((2, 2), dtype=complex) / 2
    rho = ps.lindblad_evolve(m, rho0, horizon)
    sz = ps.SZ
    eye = np.eye(2)
    liou = 0.5 * gamma * (np.kron(sz, sz.conj()) - np.kron(eye, eye))
    from scipy.linalg import expm
    rho_oracle = (expm(liou * horizon) @ rho0.reshape(-1)).reshape(2, 2)
    assert np.max(np.abs(rho - rho_oracle)) < 1e-8
    # printed-form convention: coherence decays as exp(-gamma t)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-gamma * horizon), abs=1e-6)


def test_lindblad_trace_and_hermiticity_preserved():
    rng = np.random.default_rng(6)
    m = PulseModel(2, pairs=[(0, 1)], kappa=[0.001, 0.002], gamma=[0.0005, 0.001],
                   dt_ns=0.2)
    m.i_ctrl[0].add_constant(0, 60, 0.2)
    m.j_ctrl[(0, 1)].add_constant(0, 60, 0.05)
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0
    rho = ps.lindblad_evolve(m, np.outer(psi, psi.conj()), 60.0)
    assert abs(np.trace(rho).real - 1.0) <= 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
    assert np.linalg.eigvalsh(rho).min() >= -1e-8


def test_lindblad_rejects_bad_density_matrix():
    m = PulseModel(1)
    with pytest.raises(DimensionMismatch):
        ps.lindblad_evolve(m, np.array([[0.7, 0.0], [0.0, 0.7]], dtype=complex), 1.0)
    with pytest.raises(DimensionMismatch):
        ps.lindblad_evolve(m, np.array([[1.0, 0.5], [0.1, 0.0]], dtype=complex), 1.0)


def test_lindblad_qubit_cap():
    with pytest.raises(DimensionMismatch):
        ps.lindblad_evolve(PulseModel(5), np.eye(32) / 32, 1.0)


def test_dephasing_rate_from_t1_t2():
    assert ps.dephasing_rate(100e3, 80e3) == pytest.approx(1 / 80e3 - 1 / 200e3)
    assert ps.dephasing_rate(100e3, 200e3) == 0.0  # clamped at the T2 = 2 T1 limit


def test_lindblad_coarse_step_raises_step_too_large():
    # a 6 rad/ns drive at dt 0.5 ns is outside RK4's stability region; the
    # trace stays 1 but the state leaves the positive cone
    m = PulseModel(1, dt_ns=0.5)
    m.i_ctrl[0].add_constant(0, 3, 6.0)
    with pytest.raises(StepTooLarge, match="negative eigenvalue .*dt_ns=0.5"):
        ps.lindblad_evolve(m, np.diag([1.0, 0.0]).astype(complex), 3.0)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_bad_dt_rejected_up_front(dt):
    m = PulseModel(1, dt_ns=dt)
    m.i_ctrl[0].add_constant(0, 5, 0.1)
    with pytest.raises(InvalidStep):
        ps.propagate(m, 5.0)
    with pytest.raises(InvalidStep):
        ps.lindblad_evolve(m, np.diag([1.0, 0.0]).astype(complex), 5.0)


# ---------------------------------------------------------------------------
# differential tests: the window-plan integrators against per-step references
# ---------------------------------------------------------------------------

def _ref_control_at(ctrl, t):
    return sum(s.value if s.fn is None else s.fn(t)
               for s in ctrl.segments if s.t0 <= t < s.t1)


def _ref_hamiltonian(model, t):
    ops = model._ops
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    for q in range(model.n):
        h += 0.5 * _ref_control_at(model.i_ctrl[q], t) * ops.sx[q]
        h += 0.5 * _ref_control_at(model.q_ctrl[q], t) * ops.sy[q]
        h += 0.5 * _ref_control_at(model.z_ctrl[q], t) * ops.sz[q]
    for pair, ctrl in model.j_ctrl.items():
        h += 0.5 * _ref_control_at(ctrl, t) * ops.xxyy[pair]
    return h


def _ref_windows(model, t_end):
    pts = {0.0, t_end}
    for c in model.all_controls():
        pts.update(p for p in c.breakpoints() if 0 < p < t_end)
    pts = sorted(pts)
    return [(a, b) for a, b in zip(pts[:-1], pts[1:]) if b - a > 1e-12]


def _ref_expm_step(h, dt):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def _ref_propagate(model, t_end):
    """Midpoint-Magnus with H rebuilt at every step; one exact step across
    a window whose active segments are all constant."""
    u = np.eye(model._ops.dim, dtype=complex)
    for t0, t1 in _ref_windows(model, t_end):
        width = t1 - t0
        mid = (t0 + t1) / 2
        if all(s.fn is None for c in model.all_controls() for s in c.segments
               if s.t0 <= mid < s.t1):
            u = _ref_expm_step(_ref_hamiltonian(model, mid), width) @ u
            continue
        steps = max(1, int(math.ceil(width / model.dt_ns)))
        h = width / steps
        for k in range(steps):
            u = _ref_expm_step(_ref_hamiltonian(model, t0 + (k + 0.5) * h), h) @ u
    return u


def _ref_lindblad(model, rho, t_end):
    """Classic RK4 on the master equation written term by term."""
    ops = model._ops

    def rhs(t, r):
        h = _ref_hamiltonian(model, t)
        out = -1j * (h @ r - r @ h)
        for q, k in enumerate(model.kappa):
            sm = ops.sm[q]
            pp = sm.conj().T @ sm
            out += k * (sm @ r @ sm.conj().T - 0.5 * (pp @ r + r @ pp))
        for q, g in enumerate(model.gamma):
            out += 0.5 * g * (ops.sz[q] @ r @ ops.sz[q] - r)
        return out

    for w0, w1 in _ref_windows(model, t_end):
        width = w1 - w0
        hi = w1 - 1e-9 * width
        steps = max(1, int(math.ceil(width / model.dt_ns)))
        h = width / steps
        t = w0
        for _ in range(steps):
            k1 = rhs(min(t, hi), rho)
            k2 = rhs(min(t + h / 2, hi), rho + h / 2 * k1)
            k3 = rhs(min(t + h / 2, hi), rho + h / 2 * k2)
            k4 = rhs(min(t + h, hi), rho + h * k3)
            rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    return rho


def _gaussian(t0, d, amp):
    c, sigma, base = t0 + d / 2, d / 4, math.exp(-2.0)
    return lambda t: amp * (math.exp(-((t - c) ** 2) / (2 * sigma * sigma)) - base) / (1 - base)


def _add_flat_top(ctrl, t0, d, ramp, amp):
    ctrl.add_fn(t0, t0 + ramp, lambda t: amp * 0.5 * (1 - math.cos(math.pi * (t - t0) / ramp)))
    ctrl.add_constant(t0 + ramp, t0 + d - ramp, amp)
    ctrl.add_fn(t0 + d - ramp, t0 + d,
                lambda t: amp * 0.5 * (1 - math.cos(math.pi * (t0 + d - t) / ramp)))


def _random_model(seed):
    """2-3 qubits mixing Gaussian, flat-top, constant and detuning controls,
    nonzero kappa and gamma, overlapping segments on one channel, and
    breakpoints that fall between grid points of dt."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    pairs = [(q, q + 1) for q in range(n - 1)]
    m = PulseModel(n, pairs=pairs, dt_ns=0.1,
                   kappa=list(rng.uniform(1e-3, 5e-3, n)),
                   gamma=list(rng.uniform(1e-3, 5e-3, n)))
    for q in range(n):
        t0 = float(rng.uniform(0.0, 3.0))
        m.i_ctrl[q].add_fn(t0, t0 + 8.0, _gaussian(t0, 8.0, rng.uniform(0.1, 0.4)))
        # overlaps the Gaussian on the same channel, edges off the dt grid
        m.i_ctrl[q].add_constant(t0 + 2.37, t0 + 11.13, rng.uniform(-0.2, 0.2))
        m.q_ctrl[q].add_constant(float(rng.uniform(1.0, 4.0)), 14.05, rng.uniform(-0.2, 0.2))
        m.z_ctrl[q].add_constant(0.0, 17.0, rng.uniform(-0.05, 0.05))
    for pair in pairs:
        _add_flat_top(m.j_ctrl[pair], float(rng.uniform(2.0, 6.0)), 12.5, 2.75,
                      rng.uniform(-0.1, 0.1))
    return m


@pytest.mark.parametrize("seed", range(4))
def test_hamiltonian_at_matches_reference(seed):
    m = _random_model(seed)
    for t in np.linspace(-1.0, 20.0, 43):
        assert np.max(np.abs(ps.hamiltonian_at(m, t) - _ref_hamiltonian(m, t))) <= 1e-15


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("horizon", [None, 9.87])
def test_propagate_matches_reference(seed, horizon):
    m = _random_model(seed)
    t_end = m.horizon() if horizon is None else horizon
    assert np.max(np.abs(ps.propagate(m, horizon) - _ref_propagate(m, t_end))) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("horizon", [None, 9.87, 21.0])
def test_lindblad_matches_reference(seed, horizon):
    m = _random_model(seed)
    t_end = m.horizon() if horizon is None else horizon
    rng = np.random.default_rng(100 + seed)
    psi = rng.normal(size=1 << m.n) + 1j * rng.normal(size=1 << m.n)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    rho = ps.lindblad_evolve(m, rho0, horizon)
    assert np.max(np.abs(rho - _ref_lindblad(m, rho0, t_end))) <= 1e-12


# ---------------------------------------------------------------------------
# fidelity metrics
# ---------------------------------------------------------------------------

def test_avg_gate_fidelity_identity():
    assert ps.avg_gate_fidelity(gates.matrix("h"), gates.matrix("h")) == pytest.approx(1.0)


def test_avg_gate_fidelity_x_vs_i_is_one_third():
    f = ps.avg_gate_fidelity(gates.matrix("x"), np.eye(2))
    assert abs(f - 1.0 / 3.0) < 1e-15


def test_avg_gate_fidelity_phase_invariant():
    rng = np.random.default_rng(4)
    u = random_unitary(4, rng)
    for alpha in rng.uniform(0, 2 * math.pi, 10):
        assert ps.avg_gate_fidelity(u, np.exp(1j * alpha) * u) == pytest.approx(1.0)


def test_avg_gate_fidelity_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.choice([2, 4]))
        f = ps.avg_gate_fidelity(random_unitary(d, rng), random_unitary(d, rng))
        assert 1 / (d + 1) - 1e-12 <= f <= 1 + 1e-12


def test_avg_gate_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ps.avg_gate_fidelity(np.eye(2), np.eye(4))


def test_state_fidelity_pure_projector():
    rng = np.random.default_rng(6)
    psi = random_unitary(4, rng)[:, 0]
    assert ps.state_fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)


def test_state_fidelity_maximally_mixed():
    psi = np.array([1.0, 0.0])
    assert ps.state_fidelity(np.eye(2) / 2, psi) == pytest.approx(0.5)


def test_state_fidelity_t1_half_life():
    kappa = 0.002
    m = PulseModel(1, kappa=[kappa], dt_ns=0.5)
    t_half = math.log(2) / kappa
    rho = ps.lindblad_evolve(m, np.diag([0.0, 1.0]).astype(complex), t_half)
    assert abs(ps.state_fidelity(rho, np.array([0.0, 1.0])) - 0.5) < 1e-4


def test_state_fidelity_normalization_invariants():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_unitary(2, rng)[:, 0]
        rho = np.outer(psi, psi.conj())
        val = ps.state_fidelity(rho, psi * np.exp(0.3j))
        assert 0.0 <= val <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# optimize_pulse
# ---------------------------------------------------------------------------

def test_optimizer_recovers_rabi_amplitude():
    horizon = 10.0

    def objective(p):
        m = PulseModel(1)
        m.i_ctrl[0].add_constant(0, horizon, float(p[0]))
        return ps.avg_gate_fidelity(ps.propagate(m, horizon), gates.matrix("x"))

    x, f, trace = ps.optimize_pulse(objective, [(0.05, 1.0)], budget=200)
    want = math.pi / horizon
    assert abs(x[0] - want) / want < 1e-4
    assert f > 1 - 1e-8


def test_optimizer_stationary_start_returns_start():
    def objective(p):
        return -float((p[0] - 0.5) ** 2)

    x, f, _ = ps.optimize_pulse(objective, [(0.0, 1.0)], x0=[0.5], budget=50)
    assert x[0] == pytest.approx(0.5, abs=1e-9)
    assert f == pytest.approx(0.0, abs=1e-15)


def test_optimizer_bowl_converges_quickly():
    def bowl(p):
        return -((p[0] - 0.3) ** 2 + (p[1] + 0.2) ** 2)

    x, f, trace = ps.optimize_pulse(bowl, [(-1, 1), (-1, 1)], budget=250)
    assert np.allclose(x, [0.3, -0.2], atol=1e-6)
    # <= 50 quasi-Newton iterations, each costing 1 + 2*dim evaluations
    assert len(trace) <= 50 * (1 + 2 * 2)


def test_optimizer_trace_monotone_and_budget():
    calls = {"n": 0}

    def noisyish(p):
        calls["n"] += 1
        return -float(np.sum((p - 0.2) ** 2))

    _, _, trace = ps.optimize_pulse(noisyish, [(-1, 1)] * 3, budget=40)
    assert calls["n"] <= 40
    assert all(trace[i] <= trace[i + 1] + 1e-15 for i in range(len(trace) - 1))


def test_optimizer_respects_bounds_exactly():
    seen = []

    def objective(p):
        seen.append(np.array(p))
        return float(p[0])  # push toward the upper bound

    x, f, _ = ps.optimize_pulse(objective, [(0.0, 0.7)], budget=60)
    assert all(0.0 <= s[0] <= 0.7 + 1e-15 for s in seen)
    assert x[0] == pytest.approx(0.7)


def test_optimizer_deterministic_given_seed():
    def obj(p):
        return -float((p[0] - 0.1) ** 2 + 0.5 * math.sin(3 * p[1]) ** 2)

    a = ps.optimize_pulse(obj, [(-1, 1), (-1, 1)], budget=120, seed=5, restarts=2)
    b = ps.optimize_pulse(obj, [(-1, 1), (-1, 1)], budget=120, seed=5, restarts=2)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_finite_difference_gradient_matches_richardson():
    def f(x):
        return math.sin(x[0]) * math.cos(0.5 * x[1]) + 0.1 * x[0] * x[1]

    x0 = np.array([0.4, -0.7])
    bounds = [(-2, 2), (-2, 2)]
    g = ps._central_diff(f, x0, bounds)
    # Richardson-extrapolated central differences as the richer oracle
    rich = np.zeros(2)
    for i in range(2):
        h = 1e-4
        def fd(hh):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += hh
            xm[i] -= hh
            return (f(xp) - f(xm)) / (2 * hh)
        rich[i] = (4 * fd(h / 2) - fd(h)) / 3
    assert np.max(np.abs(g - rich)) < 1e-5
