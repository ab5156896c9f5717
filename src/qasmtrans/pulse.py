"""Pulse-schedule synthesis with virtual-Z frame tracking, ranking of
high-impact gate sequences on the critical path, and the constant-coupling
two-qubit pulse ansatz (simultaneous X drives plus a shared detuning over a
fixed XX+YY coupling).

Frame tracking: RZ gates emit no events; a per-qubit phase accumulator
shifts the phase of every later drive pulse (physical phase = gate axis
minus accumulated frame). Entanglers interact with frames exactly:
diagonal entanglers (CZ, ZZ) commute with Z frames, and an iSWAP exchanges
the two frames. XX-type entanglers are not frame-transparent, so schedule
emission is supported for the cz / zz / iswap lanes only.

Schedule JSON (version "qasmtrans-pulse/1"):
    {"version", "dt_ns",
     "events": [{"t_start_ns","duration_ns","channel":{"kind","index"},
                 "waveform":{"name","params"},"amplitude","phase_rad",
                 "detuning_hz"}],
     "frames": {qubit: phase}}
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .circuit import Circuit, GateIR
from .device import DeviceModel
from .errors import DidNotConverge, MissingTemplate
from .ir import DurationTable, critical_path
from .kak import euler_two_pulse, kak_decompose, weyl_overlap
from .pulsesim import PulseModel, avg_gate_fidelity, optimize_pulse, propagate

PI = math.pi
TWO_PI_NS_PER_HZ = 2 * PI * 1e-9  # Hz -> rad/ns


# ---------------------------------------------------------------------------
# events and waveforms
# ---------------------------------------------------------------------------

@dataclass
class PulseEvent:
    t_start_ns: float
    duration_ns: float
    channel_kind: str                # drive | flux | coupler
    channel_index: object            # qubit id or (a, b) edge
    waveform_name: str               # gaussian | flat_top | constant
    waveform_params: dict = field(default_factory=dict)
    amplitude: float = 0.0           # peak, rad/ns
    phase_rad: float = 0.0
    detuning_hz: float = 0.0

    @property
    def t_end_ns(self) -> float:
        return self.t_start_ns + self.duration_ns

    def to_json_dict(self) -> dict:
        idx = self.channel_index
        return {
            "t_start_ns": self.t_start_ns,
            "duration_ns": self.duration_ns,
            "channel": {"kind": self.channel_kind,
                        "index": list(idx) if isinstance(idx, tuple) else idx},
            "waveform": {"name": self.waveform_name, "params": dict(self.waveform_params)},
            "amplitude": self.amplitude,
            "phase_rad": self.phase_rad,
            "detuning_hz": self.detuning_hz,
        }


def unit_area(name: str, duration: float, params: dict) -> float:
    """Integral of the unit-peak envelope over its duration."""
    if name == "constant":
        return duration
    if name == "gaussian":
        sigma = params.get("sigma_ns", duration / 4)
        base = math.exp(-2.0)
        full = sigma * math.sqrt(2 * PI) * math.erf(math.sqrt(2.0))
        return (full - duration * base) / (1 - base)
    if name == "flat_top":
        ramp = params.get("ramp_ns", 0.0)
        return duration - ramp
    raise MissingTemplate(name, "waveform")


def envelope_segments(event: PulseEvent):
    """(t0, t1, const value or fn) pieces for simulation, unit amplitude."""
    t0, d = event.t_start_ns, event.duration_ns
    name = event.waveform_name
    if name == "constant":
        return [(t0, t0 + d, 1.0)]
    if name == "gaussian":
        sigma = event.waveform_params.get("sigma_ns", d / 4)
        c = t0 + d / 2
        base = math.exp(-2.0)

        def fn(t, c=c, sigma=sigma, base=base):
            return (math.exp(-((t - c) ** 2) / (2 * sigma * sigma)) - base) / (1 - base)

        return [(t0, t0 + d, fn)]
    if name == "flat_top":
        ramp = event.waveform_params.get("ramp_ns", 0.0)
        if ramp <= 0:
            return [(t0, t0 + d, 1.0)]

        def up(t, t0=t0, ramp=ramp):
            return 0.5 * (1 - math.cos(PI * (t - t0) / ramp))

        def down(t, te=t0 + d, ramp=ramp):
            return 0.5 * (1 - math.cos(PI * (te - t) / ramp))

        return [(t0, t0 + ramp, up),
                (t0 + ramp, t0 + d - ramp, 1.0),
                (t0 + d - ramp, t0 + d, down)]
    raise MissingTemplate(name, "waveform")


class FrameMap:
    """Per-qubit accumulated virtual-Z phase."""

    def __init__(self, n: int):
        self.phase = [0.0] * n

    def advance(self, q: int, theta: float):
        self.phase[q] = (self.phase[q] + theta) % (2 * PI)

    def swap(self, a: int, b: int):
        self.phase[a], self.phase[b] = self.phase[b], self.phase[a]

    def to_dict(self) -> dict:
        return {q: p for q, p in enumerate(self.phase) if p != 0.0}


# ---------------------------------------------------------------------------
# pulse library
# ---------------------------------------------------------------------------

@dataclass
class AshNParams:
    omega1: float      # X drive amplitude, first qubit (rad/ns)
    omega2: float      # X drive amplitude, second qubit (rad/ns)
    delta: float       # shared detuning (rad/ns)
    g: float           # fixed XX+YY coupling (rad/ns)
    t_ns: float        # total interaction time


@dataclass
class AshNGate:
    """A calibrated two-qubit pulse plus its single-qubit corrections."""
    name: str
    params: AshNParams
    pre: tuple                 # (2x2 unitary for qubit a, for qubit b)
    post: tuple
    fidelity: float
    ramp_ns: float = 10.0

    def duration_with_corrections(self, d1q: float) -> float:
        pre_len = max(_two_pulse_count(u) for u in self.pre) * d1q
        post_len = max(_two_pulse_count(u) for u in self.post) * d1q
        return pre_len + self.params.t_ns + post_len


def _two_pulse_count(u: np.ndarray) -> int:
    t1, _p1, t2, _p2 = euler_two_pulse(u)
    return (1 if abs(t1) > 1e-9 else 0) + (1 if abs(t2) > 1e-9 else 0)


class PulseLibrary:
    """Per-gate pulse templates plus calibrated composite entries."""

    def __init__(self, device: DeviceModel, d1q_ns: float, d2q_ns: float,
                 entangler: str, coupling_rad_ns: float, ramp_ns: float = 10.0,
                 drive_shape: str = "gaussian"):
        self.device = device
        self.d1q_ns = d1q_ns
        self.d2q_ns = d2q_ns
        self.entangler = entangler
        self.g = coupling_rad_ns
        self.ramp_ns = min(ramp_ns, d2q_ns / 4)
        self.drive_shape = drive_shape
        self.ags: dict[tuple, AshNGate] = {}

    @classmethod
    def for_device(cls, device: DeviceModel, **kw) -> "PulseLibrary":
        dur = device.calibration.default_durations
        entangler = next((g for g in ("iswap", "cz", "zz") if g in dur), None)
        if entangler is None:
            raise MissingTemplate("two-qubit gate", device.name)
        d2 = dur[entangler]
        ones = [v for k, v in dur.items() if v > 0 and k not in ("cz", "zz", "iswap")]
        d1 = min(ones) if ones else 10.0
        # coupling strength that realizes the entangler area within d2
        g = (PI / 2) / unit_area("flat_top", d2, {"ramp_ns": min(10.0, d2 / 4)})
        return cls(device, d1, d2, entangler, g, **kw)

    def durations(self) -> DurationTable:
        """Durations as `build_schedule` lays gates out, calibrated entries included."""
        named = {"rz": 0.0, "gz": 0.0, "rx": self.d1q_ns, "sx": self.d1q_ns,
                 "x": self.d1q_ns, "id": self.d1q_ns,
                 self.entangler: self.d2q_ns}
        at = {key: entry.duration_with_corrections(self.d1q_ns)
              for key, entry in self.ags.items()}
        return DurationTable(named, default_1q=self.d1q_ns, default_2q=self.d2q_ns, at=at)

    def drive_event(self, qubit: int, t0: float, theta: float, phase: float) -> PulseEvent:
        params = {}
        if self.drive_shape == "gaussian":
            params = {"sigma_ns": self.d1q_ns / 4}
        area = unit_area(self.drive_shape, self.d1q_ns, params)
        return PulseEvent(t0, self.d1q_ns, "drive", qubit, self.drive_shape, params,
                          amplitude=theta / area, phase_rad=phase % (2 * PI))

    def entangler_event(self, pair: tuple, t0: float) -> PulseEvent:
        params = {"ramp_ns": self.ramp_ns}
        area = unit_area("flat_top", self.d2q_ns, params)
        # negative coupler amplitude realizes the +i-convention iSWAP exactly
        amp = -(PI / 2) / area if self.entangler == "iswap" else (PI / 2) / area
        return PulseEvent(t0, self.d2q_ns, "coupler" if self.entangler == "iswap" else "flux",
                          tuple(sorted(pair)), "flat_top", params, amplitude=amp)

    def add_ags(self, gate_name: str, qubits: tuple, entry: AshNGate):
        self.ags[(gate_name, tuple(qubits))] = entry

    def ags_entry(self, gate_name: str, qubits: tuple) -> AshNGate | None:
        return self.ags.get((gate_name, tuple(qubits)))


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

@dataclass
class Schedule:
    events: list[PulseEvent]
    frames: FrameMap
    makespan_ns: float
    dt_ns: float = 0.1

    def to_json_dict(self) -> dict:
        return {
            "version": "qasmtrans-pulse/1",
            "dt_ns": self.dt_ns,
            "events": [e.to_json_dict() for e in self.events],
            "frames": {str(q): p for q, p in self.frames.to_dict().items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


_VIRTUAL_Z = ("rz", "gz", "u1")


def build_schedule(circuit: Circuit, lib: PulseLibrary,
                   device: DeviceModel | None = None) -> Schedule:
    """ASAP pulse schedule for a circuit lowered to the library's lane.

    RZ gates update frames only; events on one channel never overlap; the
    makespan equals the critical-path latency under the library durations.
    """
    n = circuit.num_qubits
    frames = FrameMap(n)
    ready = [0.0] * n
    events: list[PulseEvent] = []
    for g in circuit.gates:
        if g.is_barrier:
            t = max((ready[q] for q in g.qubits), default=0.0)
            for q in g.qubits:
                ready[q] = t
            continue
        if g.name in _VIRTUAL_Z:
            frames.advance(g.qubits[0], g.params[0])
            continue
        entry = lib.ags_entry(g.name, g.qubits) if g.num_qubits == 2 else None
        if entry is not None:
            _emit_ashn(events, lib, frames, ready, g.qubits, entry)
            continue
        if g.num_qubits == 1:
            q = g.qubits[0]
            theta, axis = _drive_angle(g)
            ev = lib.drive_event(q, ready[q], theta, axis - frames.phase[q])
            events.append(ev)
            ready[q] = ev.t_end_ns
            continue
        if g.name == lib.entangler:
            a, b = g.qubits
            t0 = max(ready[a], ready[b])
            ev = lib.entangler_event((a, b), t0)
            events.append(ev)
            ready[a] = ready[b] = ev.t_end_ns
            if lib.entangler == "iswap":
                frames.swap(a, b)
            continue
        raise MissingTemplate(g.name, g.qubits)
    makespan = max((e.t_end_ns for e in events), default=0.0)
    makespan = max(makespan, max(ready, default=0.0))
    events.sort(key=lambda e: (e.t_start_ns, e.channel_kind, str(e.channel_index)))
    return Schedule(events, frames, makespan)


def _drive_angle(g: GateIR) -> tuple[float, float]:
    """(rotation angle, axis phase) for a native 1q pulse gate."""
    if g.name == "rx":
        return g.params[0], 0.0
    if g.name == "sx":
        return PI / 2, 0.0
    if g.name == "x":
        return PI, 0.0
    if g.name == "gpi2":
        return PI / 2, g.params[0]
    if g.name == "gpi":
        return PI, g.params[0]
    raise MissingTemplate(g.name, g.qubits)


def _emit_ashn(events: list, lib: PulseLibrary, frames: FrameMap, ready: list,
               qubits: tuple, entry: AshNGate):
    """Calibrated two-qubit pulse with its Euler two-pulse local corrections.

    Frames are flushed into the correction pulses (the entangling drive is
    not frame-transparent, so pending virtual-Z phases compose into the
    pre-rotation unitaries and are realized physically)."""
    a, b = qubits
    t0 = max(ready[a], ready[b])
    pre_a = entry.pre[0] @ np.diag([1.0, np.exp(1j * frames.phase[a])])
    pre_b = entry.pre[1] @ np.diag([1.0, np.exp(1j * frames.phase[b])])
    ta = _emit_two_pulse(events, lib, a, t0, pre_a)
    tb = _emit_two_pulse(events, lib, b, t0, pre_b)
    frames.phase[a] = frames.phase[b] = 0.0
    t1 = max(ta, tb)
    p = entry.params
    shape_params = {"ramp_ns": entry.ramp_ns}
    dur = p.t_ns
    det_hz = p.delta / TWO_PI_NS_PER_HZ
    events.append(PulseEvent(t1, dur, "drive", a, "flat_top", shape_params,
                             amplitude=p.omega1, detuning_hz=det_hz))
    events.append(PulseEvent(t1, dur, "drive", b, "flat_top", shape_params,
                             amplitude=p.omega2, detuning_hz=det_hz))
    events.append(PulseEvent(t1, dur, "coupler", tuple(sorted((a, b))), "flat_top",
                             shape_params, amplitude=p.g))
    t2 = t1 + dur
    ta = _emit_two_pulse(events, lib, a, t2, entry.post[0])
    tb = _emit_two_pulse(events, lib, b, t2, entry.post[1])
    ready[a] = ready[b] = max(ta, tb)


def _emit_two_pulse(events: list, lib: PulseLibrary, q: int, t0: float,
                    u: np.ndarray) -> float:
    """Realize a 1q unitary as up to two phased pulses; returns end time."""
    theta1, phi1, theta2, phi2 = euler_two_pulse(u)
    t = t0
    for theta, phi in ((theta1, phi1), (theta2, phi2)):
        if abs(theta) < 1e-9:
            continue
        events.append(lib.drive_event(q, t, theta, phi))
        t += lib.d1q_ns
    return t


# ---------------------------------------------------------------------------
# schedule simulation glue
# ---------------------------------------------------------------------------

def schedule_to_model(schedule: Schedule, num_qubits: int, active=None,
                      kappa=None, gamma=None, dt_ns: float | None = None) -> tuple:
    """PulseModel over the active qubit subset, plus the local index map.

    Drive events add I/Q (and detuning Z) controls; coupler events add the
    XX+YY coupling. Flux entangler events (cz/zz lanes) have no Eq-style
    control realization here and are rejected.
    """
    if active is None:
        active = sorted({q for e in schedule.events for q in
                         (e.channel_index if isinstance(e.channel_index, tuple)
                          else (e.channel_index,))})
    idx = {q: i for i, q in enumerate(active)}
    pairs = sorted({tuple(sorted((idx[a], idx[b])))
                    for e in schedule.events if isinstance(e.channel_index, tuple)
                    for a, b in [e.channel_index]})
    model = PulseModel(len(active), pairs=pairs,
                       dt_ns=dt_ns if dt_ns is not None else schedule.dt_ns,
                       kappa=[(kappa or {}).get(q, 0.0) for q in active],
                       gamma=[(gamma or {}).get(q, 0.0) for q in active])
    for e in schedule.events:
        if e.channel_kind == "drive":
            q = idx[e.channel_index]
            cphi, sphi = math.cos(e.phase_rad), math.sin(e.phase_rad)
            for t0, t1, seg in envelope_segments(e):
                if callable(seg):
                    model.i_ctrl[q].add_fn(t0, t1, lambda t, f=seg, a=e.amplitude * cphi: a * f(t))
                    model.q_ctrl[q].add_fn(t0, t1, lambda t, f=seg, a=e.amplitude * sphi: a * f(t))
                else:
                    model.i_ctrl[q].add_constant(t0, t1, e.amplitude * cphi * seg)
                    model.q_ctrl[q].add_constant(t0, t1, e.amplitude * sphi * seg)
            if e.detuning_hz:
                model.z_ctrl[q].add_constant(e.t_start_ns, e.t_end_ns,
                                             e.detuning_hz * TWO_PI_NS_PER_HZ)
        elif e.channel_kind == "coupler":
            a, b = (idx[x] for x in e.channel_index)
            key = tuple(sorted((a, b)))
            for t0, t1, seg in envelope_segments(e):
                if callable(seg):
                    model.j_ctrl[key].add_fn(t0, t1, lambda t, f=seg, a=e.amplitude: a * f(t))
                else:
                    model.j_ctrl[key].add_constant(t0, t1, e.amplitude * seg)
        else:
            raise MissingTemplate(e.channel_kind, e.channel_index)
    return model, idx


def schedule_from_json(doc) -> Schedule:
    """Rebuild a Schedule from its JSON document (text or parsed dict)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if doc.get("version") != "qasmtrans-pulse/1":
        raise MissingTemplate("version", doc.get("version"))
    events = []
    for e in doc["events"]:
        idx = e["channel"]["index"]
        events.append(PulseEvent(
            float(e["t_start_ns"]), float(e["duration_ns"]),
            e["channel"]["kind"], tuple(idx) if isinstance(idx, list) else idx,
            e["waveform"]["name"], dict(e["waveform"].get("params", {})),
            float(e.get("amplitude", 0.0)), float(e.get("phase_rad", 0.0)),
            float(e.get("detuning_hz", 0.0))))
    max_q = 0
    for e in events:
        qs = e.channel_index if isinstance(e.channel_index, tuple) else (e.channel_index,)
        max_q = max(max_q, max(qs))
    frames = FrameMap(max(max_q + 1, 1 + max((int(q) for q in doc.get("frames", {})), default=0)))
    for q, phase in doc.get("frames", {}).items():
        frames.phase[int(q)] = float(phase)
    makespan = max((e.t_end_ns for e in events), default=0.0)
    return Schedule(events, frames, makespan, float(doc.get("dt_ns", 0.1)))


def simulate_schedule(schedule: Schedule, device: DeviceModel,
                      dt_ns: float | None = None) -> dict:
    """Noisy run of a schedule against the device's T1/T2 calibration.

    final_fidelity compares the Lindblad-evolved state from |0..0> against
    the noiseless propagation of the same schedule. Density-matrix runs are
    capped at 4 active qubits.
    """
    from .pulsesim import dephasing_rate, lindblad_evolve, propagate, state_fidelity

    active = sorted({q for e in schedule.events for q in
                     (e.channel_index if isinstance(e.channel_index, tuple)
                      else (e.channel_index,))})
    if not active:
        return {"final_fidelity": 1.0, "trace_error": 0.0,
                "makespan_ns": schedule.makespan_ns}
    cal = device.calibration
    kappa = {q: 1.0 / (cal.t1_us[q] * 1000.0) for q in active}
    gamma = {q: dephasing_rate(cal.t1_us[q] * 1000.0, cal.t2_us[q] * 1000.0)
             for q in active}
    n = len(active)
    model, _ = schedule_to_model(schedule, max(active) + 1, active=active,
                                 kappa=kappa, gamma=gamma, dt_ns=dt_ns)
    horizon = schedule.makespan_ns
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    # propagate reads the controls only, never the decay rates
    psi = propagate(model, horizon) @ psi0
    rho0 = np.outer(psi0, psi0.conj())
    rho = lindblad_evolve(model, rho0, horizon)
    return {
        "final_fidelity": state_fidelity(rho, psi),
        "trace_error": abs(float(np.trace(rho).real) - 1.0),
        "makespan_ns": schedule.makespan_ns,
    }


def frame_correction(schedule: Schedule, num_qubits: int, active) -> np.ndarray:
    """Residual virtual-Z corrections as a diagonal unitary on the active set."""
    diag = np.array([1.0 + 0j])
    for q in active:
        phase = schedule.frames.phase[q] if q < len(schedule.frames.phase) else 0.0
        diag = np.kron(diag, np.array([1.0, np.exp(1j * phase)]))
    return np.diag(diag)


# ---------------------------------------------------------------------------
# AGS candidate ranking
# ---------------------------------------------------------------------------

@dataclass
class AgsCandidate:
    signature: str
    qubits: tuple
    cumulative_latency_ns: float
    count: int


def ags_candidates(circuit: Circuit, durations) -> list[AgsCandidate]:
    """Contiguous one- and two-qubit gate runs along the critical path,
    ranked by their total latency contribution. Single pass over the path."""
    table = DurationTable.coerce(durations)
    cp_gates, _latency = critical_path(circuit, table)
    windows: list[tuple[tuple, list[GateIR]]] = []
    cur_qubits: set = set()
    cur: list[GateIR] = []
    for g in cp_gates:
        merged = cur_qubits | set(g.qubits)
        if cur and len(merged) > 2:
            windows.append((tuple(sorted(cur_qubits)), cur))
            cur, cur_qubits = [], set()
        cur.append(g)
        cur_qubits |= set(g.qubits)
    if cur:
        windows.append((tuple(sorted(cur_qubits)), cur))
    grouped: dict[tuple, AgsCandidate] = {}
    for qubits, run in windows:
        sig = _window_signature(qubits, run)
        dur = sum(table.duration(g) for g in run)
        key = (sig, qubits)
        if key in grouped:
            grouped[key].cumulative_latency_ns += dur
            grouped[key].count += 1
        else:
            grouped[key] = AgsCandidate(sig, qubits, dur, 1)
    out = list(grouped.values())
    out.sort(key=lambda c: (-c.cumulative_latency_ns, -c.count, c.signature, c.qubits))
    return out


def _window_signature(qubits: tuple, run: list[GateIR]) -> str:
    """Canonical, pair-permutation-invariant string for a gate run."""
    def encode(role_of):
        parts = []
        for g in run:
            params = ",".join(f"{round(p / 1e-9) * 1e-9:.9f}" for p in g.params)
            roles = "".join(str(role_of[q]) for q in g.qubits)
            parts.append(f"{g.name}({params})@{roles}")
        return ";".join(parts)

    if len(qubits) == 1:
        return encode({qubits[0]: 0})
    a, b = qubits
    return min(encode({a: 0, b: 1}), encode({a: 1, b: 0}))


# ---------------------------------------------------------------------------
# AshN synthesis
# ---------------------------------------------------------------------------

def ashn_model(omega1: float, omega2: float, delta: float, g: float, t_ns: float,
               ramp_ns: float = 10.0, dt_ns: float = 0.5) -> PulseModel:
    """Two-qubit model: H = delta/2 (ZI+IZ) + g/2 (XX+YY) + O1/2 XI + O2/2 IX.

    Drives and coupling share a flat-top envelope with cosine ramps; the
    detuning is constant over the window."""
    model = PulseModel(2, pairs=[(0, 1)], dt_ns=dt_ns)
    ramp = min(ramp_ns, t_ns / 4)
    ev = PulseEvent(0.0, t_ns, "drive", 0, "flat_top", {"ramp_ns": ramp}, amplitude=1.0)
    segs = envelope_segments(ev)
    for ctrl, amp in ((model.i_ctrl[0], omega1), (model.i_ctrl[1], omega2),
                      (model.j_ctrl[(0, 1)], g)):
        if amp == 0.0:
            continue
        for t0, t1, seg in segs:
            if callable(seg):
                ctrl.add_fn(t0, t1, lambda t, f=seg, a=amp: a * f(t))
            else:
                ctrl.add_constant(t0, t1, amp * seg)
    if delta != 0.0:
        model.z_ctrl[0].add_constant(0.0, t_ns, delta)
        model.z_ctrl[1].add_constant(0.0, t_ns, delta)
    return model


def synthesize_ashn(target: np.ndarray, g: float, budget: int = 300,
                    seed: int = 0, max_drive: float = 1.0,
                    t_ns: float | None = None, optimize_time: bool = True,
                    ramp_ns: float = 10.0, dt_ns: float = 0.5,
                    threshold: float = 0.5) -> AshNGate:
    """Calibrate (Omega1, Omega2, Delta[, T]) so the enveloped two-qubit pulse
    lands in the target's Weyl class; local corrections come from KAK and are
    realized as two-pulse rotations.

    Returns an AshNGate with the achieved average gate fidelity of the fully
    corrected gate against the target. Deterministic for fixed seed/budget.
    """
    wp_t = kak_decompose(target)
    d_weyl = wp_t.a + wp_t.b + abs(wp_t.c)
    if d_weyl < 1e-9:
        # identity class: no interaction needed
        entry = AshNGate("ags", AshNParams(0.0, 0.0, 0.0, g, 0.0),
                         (wp_t.k1 @ wp_t.k3, wp_t.k2 @ wp_t.k4),
                         (np.eye(2), np.eye(2)), 1.0, ramp_ns)
        return entry
    t_min = d_weyl / g
    t0 = t_ns if t_ns is not None else 2.0 * t_min

    def simulate(params):
        o1, o2, de = params[0], params[1], params[2]
        tt = params[3] if optimize_time else t0
        model = ashn_model(o1, o2, de, g, tt, ramp_ns, dt_ns)
        return propagate(model, tt)

    def objective(params):
        u = simulate(params)
        return weyl_overlap(kak_decompose(u).coords, wp_t.coords)

    if optimize_time:
        bounds = [(-max_drive, max_drive)] * 2 + [(-max_drive, max_drive),
                                                  (t_min, 4.0 * t_min)]
        x0 = np.array([0.0, 0.0, 0.0, t0])
    else:
        bounds = [(-max_drive, max_drive)] * 3
        x0 = np.zeros(3)
    best_x, best_f, _trace = optimize_pulse(objective, bounds, budget=budget,
                                            seed=seed, x0=x0, restarts=2)
    u = simulate(best_x)
    wp_u = kak_decompose(u)
    # dress the pulse so the corrected gate matches the target exactly:
    # target = (k1t k1u^-1) U (k3u^-1 k3t) up to phase, per matching Weyl class
    pre = (wp_u.k3.conj().T @ wp_t.k3, wp_u.k4.conj().T @ wp_t.k4)
    post = (wp_t.k1 @ wp_u.k1.conj().T, wp_t.k2 @ wp_u.k2.conj().T)
    dressed = np.kron(post[0], post[1]) @ u @ np.kron(pre[0], pre[1])
    fid = avg_gate_fidelity(dressed, target)
    tt = float(best_x[3]) if optimize_time else t0
    entry = AshNGate("ags", AshNParams(float(best_x[0]), float(best_x[1]),
                                       float(best_x[2]), g, tt),
                     pre, post, float(fid), min(ramp_ns, tt / 4))
    if fid < threshold:
        raise DidNotConverge(fid)
    return entry
