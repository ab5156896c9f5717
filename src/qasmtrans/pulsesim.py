"""Pulse-level simulator: time-dependent Hamiltonian assembly, unitary
propagation, Lindblad evolution, fidelity metrics, and a bounded
pulse-parameter optimizer.

Units: time in ns, angular amplitudes in rad/ns, decay rates in 1/ns.

The drive/coupling Hamiltonian is

    H(t) = sum_i [ I_i(t)/2 sx_i + Q_i(t)/2 sy_i ]
         + sum_<ij> J_ij(t)/2 (sx_i sx_j + sy_i sy_j)
         + sum_i D_i(t)/2 sz_i

where the D term is zero unless a detuning control is programmed (it backs
the two-qubit calibration ansatz, which adds a shared Z detuning).

Open-system dynamics integrate, verbatim,

    drho = -i[H, rho] + sum_i kappa_i (s-_i rho s+_i - {s+_i s-_i, rho}/2)
                      + sum_i gamma_i/2 (sz_i rho sz_i - rho)

so a pure dephasing rate gamma decays coherences as exp(-gamma t), and
gamma is derived from calibration as 1/T2 - 1/(2 T1), clamped at zero.

Both integrators run on a window plan compiled once per call: the sorted
breakpoints of all controls cut the horizon into windows, and each window
holds the constant part of H, summed once, plus the (fn, operator) terms
that vary in time. Varying control values are evaluated on the step grid
in chunks of at most CHUNK_STEPS steps, one tensordot per chunk.

Propagators take one exact exponential (`gates.expm_herm`) across a window
with no varying term and fixed-step midpoint-Magnus (one batched
`expm_herm` per chunk) elsewhere. Lindblad runs use classic RK4 at fixed
dt with the anticommutator and the -gamma/2 rho terms folded into a
non-Hermitian G = H - iA, so one stage is
M = -i G rho, k = M + M^dag + J(rho), where J is the jump map precomputed
as a gather over the (monomial) collapse and dephasing operators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gates
from .errors import DimensionMismatch, InvalidStep, StepTooLarge

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)   # sigma_minus = |0><1|
SP = SM.conj().T

MAX_DM_QUBITS = 4
MAX_STATE_QUBITS = 10
DEFAULT_DT_NS = 0.1
CHUNK_STEPS = 32    # steps whose control values are evaluated together


def dephasing_rate(t1_ns: float, t2_ns: float) -> float:
    """Pure dephasing rate 1/T2 - 1/(2 T1), clamped at zero."""
    return max(0.0, 1.0 / t2_ns - 1.0 / (2.0 * t1_ns))


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    t0: float
    t1: float
    value: float | None = None     # constant segment
    fn: object = None              # or callable t_ns -> float


class Control:
    """Piecewise control channel: a sum of time-bounded segments, each
    active on [t0, t1)."""

    def __init__(self):
        self.segments: list[Segment] = []

    def add_constant(self, t0: float, t1: float, value: float):
        if value != 0.0:
            self.segments.append(Segment(t0, t1, value=value))

    def add_fn(self, t0: float, t1: float, fn):
        self.segments.append(Segment(t0, t1, fn=fn))

    def breakpoints(self) -> list[float]:
        pts = set()
        for s in self.segments:
            pts.add(s.t0)
            pts.add(s.t1)
        return sorted(pts)


@dataclass
class PulseModel:
    """n-qubit control model over a device-topology subset."""
    n: int
    pairs: list[tuple[int, int]] = field(default_factory=list)
    dt_ns: float = DEFAULT_DT_NS
    kappa: list[float] = field(default_factory=list)   # relaxation rate 1/ns
    gamma: list[float] = field(default_factory=list)   # dephasing rate 1/ns

    def __post_init__(self):
        self.i_ctrl = [Control() for _ in range(self.n)]
        self.q_ctrl = [Control() for _ in range(self.n)]
        self.z_ctrl = [Control() for _ in range(self.n)]
        self.j_ctrl = {tuple(sorted(p)): Control() for p in self.pairs}
        if not self.kappa:
            self.kappa = [0.0] * self.n
        if not self.gamma:
            self.gamma = [0.0] * self.n
        self._ops = _operators(self.n, tuple(tuple(sorted(p)) for p in self.pairs))

    def all_controls(self) -> list[Control]:
        return self.i_ctrl + self.q_ctrl + self.z_ctrl + list(self.j_ctrl.values())

    def horizon(self) -> float:
        pts = [p for c in self.all_controls() for p in c.breakpoints()]
        return max(pts) if pts else 0.0


class _Operators:
    """Full-space Pauli/collapse operators, shared by every model with the
    same qubit count and pairs and therefore read-only."""

    def __init__(self, n: int, pairs):
        dim = 1 << n
        self.dim = dim
        self.sx = [_embed(SX, q, n) for q in range(n)]
        self.sy = [_embed(SY, q, n) for q in range(n)]
        self.sz = [_embed(SZ, q, n) for q in range(n)]
        self.sm = [_embed(SM, q, n) for q in range(n)]
        self.xxyy = {}
        for (a, b) in pairs:
            self.xxyy[(a, b)] = _frozen(self.sx[a] @ self.sx[b] + self.sy[a] @ self.sy[b])


@lru_cache(maxsize=32)
def _operators(n: int, pairs: tuple) -> _Operators:
    return _Operators(n, pairs)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _embed(op: np.ndarray, q: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(out, op if i == q else np.eye(2))
    return _frozen(out)


# ---------------------------------------------------------------------------
# window plan
# ---------------------------------------------------------------------------

def _control_terms(model: PulseModel) -> list:
    """(control, operator) pairs with H = sum value/2 * operator: the one
    place that maps control channels to Hamiltonian terms."""
    ops = model._ops
    terms = []
    for q in range(model.n):
        terms += [(model.i_ctrl[q], ops.sx[q]), (model.q_ctrl[q], ops.sy[q]),
                  (model.z_ctrl[q], ops.sz[q])]
    terms += [(ctrl, ops.xxyy[pair]) for pair, ctrl in model.j_ctrl.items()]
    return terms


@dataclass
class _Window:
    """[t0, t1) with the constant part of H and its time-varying terms."""
    t0: float
    t1: float
    h0: np.ndarray
    fns: list                   # callables t_ns -> control value
    ops: np.ndarray | None      # (len(fns), dim, dim), each fn's operator / 2

    def steps(self, dt_ns: float) -> tuple[int, float]:
        """Number and width of the fixed steps that tile the window."""
        width = self.t1 - self.t0
        steps = max(1, int(math.ceil(width / dt_ns)))
        return steps, width / steps

    def h_at(self, times) -> np.ndarray:
        """H at each of `times` (all inside the window), shape (len, dim, dim)."""
        if not self.fns:
            return np.broadcast_to(self.h0, (len(times),) + self.h0.shape)
        vals = np.array([[fn(t) for t in times] for fn in self.fns])
        return self.h0 + np.tensordot(vals, self.ops, axes=(0, 0))


def _windows_at(model: PulseModel, bounds) -> list[_Window]:
    """One window per (t0, t1, probe) of `bounds`, sorted by probe, holding
    the segments active at the probe time (t0 <= probe < t1)."""
    terms = _control_terms(model)
    probes = np.array([p for _, _, p in bounds])
    consts = [[0.0] * len(terms) for _ in bounds]
    varying = [[] for _ in bounds]
    for c, (ctrl, _) in enumerate(terms):
        segs = ctrl.segments
        lo = np.searchsorted(probes, [s.t0 for s in segs])
        hi = np.searchsorted(probes, [s.t1 for s in segs])
        for s, a, b in zip(segs, lo.tolist(), hi.tolist()):
            for w in range(a, b):
                if s.fn is None:
                    consts[w][c] += s.value
                else:
                    varying[w].append((s.fn, c))
    dim = model._ops.dim
    out = []
    for (t0, t1, _), cw, vw in zip(bounds, consts, varying):
        h0 = np.zeros((dim, dim), dtype=complex)
        for c, v in enumerate(cw):
            if v:
                h0 += 0.5 * v * terms[c][1]
        ops = np.array([0.5 * terms[c][1] for _, c in vw]) if vw else None
        out.append(_Window(t0, t1, h0, [fn for fn, _ in vw], ops))
    return out


def _plan(model: PulseModel, t_end: float) -> list[_Window]:
    """Windows between consecutive control breakpoints over [0, t_end].
    Rejects a dt_ns that is not a finite positive number."""
    if not (math.isfinite(model.dt_ns) and model.dt_ns > 0):
        raise InvalidStep(f"dt_ns must be a finite positive number, got {model.dt_ns!r}")
    if t_end <= 0:
        return []
    pts = {0.0, t_end}
    for ctrl in model.all_controls():
        pts.update(p for p in ctrl.breakpoints() if 0 < p < t_end)
    pts = sorted(pts)
    return _windows_at(model, [(a, b, (a + b) / 2) for a, b in zip(pts[:-1], pts[1:])
                               if b - a > 1e-12])


def hamiltonian_at(model: PulseModel, t: float) -> np.ndarray:
    """H(t) per the module formula; Hermitian by construction."""
    return _windows_at(model, [(t, t, t)])[0].h_at([t])[0]


def propagate(model: PulseModel, horizon: float | None = None) -> np.ndarray:
    """Time-ordered propagator U(T) by midpoint-Magnus steps.

    Windows where every control is constant are integrated in one exact
    exponential; time-varying windows use fixed dt_ns midpoint steps.
    """
    if model.n > MAX_STATE_QUBITS:
        raise DimensionMismatch(f"propagator capped at {MAX_STATE_QUBITS} qubits")
    t_end = model.horizon() if horizon is None else float(horizon)
    u = np.eye(model._ops.dim, dtype=complex)
    for win in _plan(model, t_end):
        steps, h = win.steps(model.dt_ns) if win.fns else (1, win.t1 - win.t0)
        for c0 in range(0, steps, CHUNK_STEPS):
            hs = win.h_at([win.t0 + (k + 0.5) * h
                           for k in range(c0, min(steps, c0 + CHUNK_STEPS))])
            for e in gates.expm_herm(hs, -h):
                u = e @ u
    return u


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10,
                         trace_tol: float = 1e-8, eig_tol: float = -1e-8):
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise DimensionMismatch("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise DimensionMismatch("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < eig_tol:
        raise DimensionMismatch("density matrix has a negative eigenvalue")


def _dissipator(model: PulseModel):
    """(A, J) with the master-equation dissipator equal to
    -{A, rho} + J(rho); J is None when every rate is zero.

    J(rho) = sum_k c_k L_k rho L_k^dag over the collapse (kappa, s-) and
    dephasing (gamma/2, sz) operators. Each L_k has at most one nonzero per
    row, so J is a weighted gather: J(rho) = sum_m W_m * rho.flat[idx_m],
    with one m for all the diagonal sz terms and one per s- term.
    """
    ops = model._ops
    dim = ops.dim
    rows = np.arange(dim)
    a = np.zeros((dim, dim), dtype=complex)
    srcs = [rows]
    wts = [np.zeros((dim, dim), dtype=complex)]
    for q, g in enumerate(model.gamma):
        if g > 0:
            a += 0.25 * g * np.eye(dim)
            z = np.diagonal(ops.sz[q])
            wts[0] += 0.5 * g * np.outer(z, z.conj())
    for q, k in enumerate(model.kappa):
        if k > 0:
            sm = ops.sm[q]
            a += 0.5 * k * (sm.conj().T @ sm)
            src = np.argmax(sm != 0, axis=1)     # column of each row's nonzero
            amp = sm[rows, src]
            srcs.append(src)
            wts.append(k * np.outer(amp, amp.conj()))
    keep = [m for m, w in enumerate(wts) if w.any()]
    if not keep:
        return a, None
    idx = np.array([srcs[m][:, None] * dim + srcs[m][None, :] for m in keep])
    wts = np.array([wts[m] for m in keep])

    def jump(r):
        return (wts * r.ravel()[idx]).sum(axis=0)
    return a, jump


def lindblad_evolve(model: PulseModel, rho0: np.ndarray, horizon: float | None = None,
                    check: bool = True) -> np.ndarray:
    """Integrate the master equation with RK4 at fixed dt.

    A state that leaves the positive cone or whose trace drifts means the
    step was too coarse: both raise StepTooLarge naming dt_ns.
    """
    if model.n > MAX_DM_QUBITS:
        raise DimensionMismatch(f"density-matrix runs capped at {MAX_DM_QUBITS} qubits")
    rho = np.asarray(rho0, dtype=complex).copy()
    if rho.shape != (model._ops.dim, model._ops.dim):
        raise DimensionMismatch(f"rho has shape {rho.shape}, expected {model._ops.dim}")
    if check:
        check_density_matrix(rho)
    t_end = model.horizon() if horizon is None else float(horizon)
    plan = _plan(model, t_end)
    if not plan:
        return rho
    a, jump = _dissipator(model)

    def rhs(g, r):
        m = g @ r
        m += m.conj().T
        if jump is not None:
            m += jump(r)
        return m

    # stage times are clamped into the window so that half-open segment
    # edges stay consistent; t accumulates as t += h across the window
    for win in plan:
        hi = win.t1 - 1e-9 * (win.t1 - win.t0)
        steps, h = win.steps(model.dt_ns)
        t = win.t0
        for c0 in range(0, steps, CHUNK_STEPS):
            n = min(steps, c0 + CHUNK_STEPS) - c0
            times = []
            for _ in range(n):
                times += [min(t, hi), min(t + h / 2, hi)]
                t += h
            times.append(min(t, hi))
            gs = -1j * win.h_at(times) - a          # -i G at each stage time
            for s in range(n):
                g1, g2, g4 = gs[2 * s], gs[2 * s + 1], gs[2 * s + 2]
                k1 = rhs(g1, rho)
                k2 = rhs(g2, rho + h / 2 * k1)
                k3 = rhs(g2, rho + h / 2 * k2)
                k4 = rhs(g4, rho + h * k3)
                rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    drift = abs(np.trace(rho).real - 1.0)
    if not (drift <= 1e-8 and np.isfinite(rho).all()):
        raise StepTooLarge(f"trace drifted by {drift:.2e} at dt_ns={model.dt_ns}; "
                           "reduce dt_ns")
    if check:
        try:
            check_density_matrix(rho, herm_tol=1e-9)
        except DimensionMismatch as exc:
            raise StepTooLarge(f"{exc} after integrating at dt_ns={model.dt_ns}; "
                               "reduce dt_ns") from None
    return rho


# ---------------------------------------------------------------------------
# fidelity metrics
# ---------------------------------------------------------------------------

def avg_gate_fidelity(u: np.ndarray, u_tgt: np.ndarray) -> float:
    """( |Tr(U_tgt^dag U)|^2 + d ) / ( d (d+1) ); global-phase invariant."""
    u = np.asarray(u)
    u_tgt = np.asarray(u_tgt)
    if u.shape != u_tgt.shape or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"shapes {u.shape} vs {u_tgt.shape}")
    d = u.shape[0]
    tr = np.trace(u_tgt.conj().T @ u)
    return float((abs(tr) ** 2 + d) / (d * (d + 1)))


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a density matrix against a pure state."""
    rho = np.asarray(rho)
    psi = np.asarray(psi).reshape(-1)
    if rho.shape != (psi.size, psi.size):
        raise DimensionMismatch(f"rho {rho.shape} incompatible with psi {psi.shape}")
    val = np.vdot(psi, rho @ psi)
    if abs(val.imag) > 1e-9:
        raise DimensionMismatch(f"fidelity has imaginary part {val.imag:.2e}")
    return float(val.real)


# ---------------------------------------------------------------------------
# bounded quasi-Newton pulse optimizer
# ---------------------------------------------------------------------------

FD_STEP = 1e-6


def _central_diff(fn, x, bounds):
    g = np.zeros_like(x)
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        lo, hi = bounds[i]
        xp = x.copy(); xp[i] = min(x[i] + h, hi)
        xm = x.copy(); xm[i] = max(x[i] - h, lo)
        denom = xp[i] - xm[i]
        g[i] = (fn(xp) - fn(xm)) / denom if denom > 0 else 0.0
    return g


def optimize_pulse(objective, bounds, budget: int = 200, seed: int | None = None,
                   x0=None, restarts: int = 0):
    """Maximize a deterministic objective under box bounds with L-BFGS-B.

    Gradients are central finite differences with step 1e-6*max(1,|p|).
    Returns (best params, best value, trace) where trace is the monotone
    best-so-far value after each objective evaluation. The evaluation budget
    counts every objective call, including gradient stencils; the seed only
    drives optional random restarts.
    """
    from scipy.optimize import minimize

    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    dim = len(bounds)
    evals = {"n": 0}
    best = {"x": None, "f": -math.inf}
    trace: list[float] = []

    def record(x, f):
        evals["n"] += 1
        if f > best["f"]:
            best["f"] = f
            best["x"] = np.array(x)
        trace.append(best["f"])

    class _Budget(Exception):
        pass

    def neg(x):
        if evals["n"] >= budget:
            raise _Budget()
        x = np.clip(x, [b[0] for b in bounds], [b[1] for b in bounds])
        f = float(objective(np.array(x)))
        record(x, f)
        return -f

    def neg_grad(x):
        return -_central_diff(lambda p: -neg(p), np.asarray(x, dtype=float), bounds)

    starts = []
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    else:
        starts.append(np.array([(lo + hi) / 2 for lo, hi in bounds]))
    rng = np.random.default_rng(seed if seed is not None else 0)
    for _ in range(restarts):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))

    for x_start in starts:
        if evals["n"] >= budget:
            break
        try:
            minimize(neg, x_start, jac=neg_grad, method="L-BFGS-B", bounds=bounds,
                     options={"maxcor": 10, "maxfun": budget, "ftol": 1e-15, "gtol": 1e-12})
        except _Budget:
            pass
    if best["x"] is None:
        x = starts[0]
        f = float(objective(x))
        record(x, f)
    return best["x"], best["f"], trace
