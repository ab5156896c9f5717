"""Pulse schedule tests: frame tracking, ASAP timing, AGS ranking, and the
two-qubit calibration ansatz."""
import json
import math
import time

import numpy as np
import pytest

from qasmtrans import devicelib, gates, ir, oracle, pulse, pulsesim
from qasmtrans.circuit import Circuit
from qasmtrans.errors import MissingTemplate
from qasmtrans.lowering import lower
from qasmtrans.pulse import PulseLibrary
from qasmtrans.transpile import gc_paused

from conftest import phase_distance

PI = math.pi


@pytest.fixture(scope="module")
def chain_lib():
    dev = devicelib.line(7, basis="rigetti_pulse", t1_us=20.0, t2_us=15.0)
    return dev, PulseLibrary.for_device(dev)


@pytest.fixture(scope="module")
def cx_entry(chain_lib):
    # a calibrated CX for the chain's coupling strength
    _dev, lib = chain_lib
    return pulse.synthesize_ashn(gates.matrix("cx"), g=lib.g, budget=300, seed=0,
                                 max_drive=0.5)


def _simulate_schedule(schedule, qubits, dt=0.01):
    model, idx = pulse.schedule_to_model(schedule, max(qubits) + 1, active=list(qubits),
                                         dt_ns=dt)
    u = pulsesim.propagate(model, max(schedule.makespan_ns, 1e-9))
    return pulse.frame_correction(schedule, max(qubits) + 1, list(qubits)) @ u


# ---------------------------------------------------------------------------
# build_schedule
# ---------------------------------------------------------------------------

def test_rz_only_circuit_emits_no_events(chain_lib):
    _dev, lib = chain_lib
    c = Circuit(2).add("rz", [0], (0.4,)).add("rz", [1], (1.1,)).add("rz", [0], (0.2,))
    s = pulse.build_schedule(c, lib)
    assert s.events == []
    assert s.frames.phase[0] == pytest.approx(0.6)
    assert s.frames.phase[1] == pytest.approx(1.1)
    assert s.makespan_ns == 0.0


def test_single_rx_single_event(chain_lib):
    _dev, lib = chain_lib
    s = pulse.build_schedule(Circuit(1).add("rx", [0], (PI / 2,)), lib)
    assert len(s.events) == 1
    assert s.events[0].duration_ns == lib.d1q_ns
    assert s.makespan_ns == lib.d1q_ns


def test_frame_phase_enters_drive(chain_lib):
    _dev, lib = chain_lib
    c = Circuit(1).add("rz", [0], (0.7,)).add("rx", [0], (PI / 2,))
    s = pulse.build_schedule(c, lib)
    assert len(s.events) == 1
    assert s.events[0].phase_rad == pytest.approx((-0.7) % (2 * PI))


def test_channel_events_never_overlap(chain_lib):
    dev, lib = chain_lib
    rng = np.random.default_rng(0)
    from conftest import random_circuit
    c = lower(random_circuit(3, 25, rng, p_two=0.4), "rigetti_pulse")
    s = pulse.build_schedule(c, lib)
    by_channel = {}
    for e in s.events:
        key = (e.channel_kind, str(e.channel_index))
        by_channel.setdefault(key, []).append((e.t_start_ns, e.t_end_ns))
    for spans in by_channel.values():
        spans.sort()
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert s1 >= e0 - 1e-12


def test_makespan_equals_critical_path(chain_lib, circuits):
    _dev, lib = chain_lib
    for name in ("bell", "ghz_n5", "adder_n4", "qec_n5"):
        c = lower(circuits[name].without_measurements(), "rigetti_pulse")
        if c.num_qubits > 7:
            continue
        s = pulse.build_schedule(c, lib)
        _cp, latency = ir.critical_path(c, lib.durations())
        assert s.makespan_ns == latency


def test_makespan_equals_critical_path_with_an_ags_entry(chain_lib, cx_entry):
    # the library times a kept gate with its calibrated entry, as the
    # schedule lays it out
    _dev, lib = chain_lib
    lib.add_ags("cx", (0, 1), cx_entry)
    rng = np.random.default_rng(2)
    try:
        circuits = [Circuit(2).add("h", [0]).add("cx", [0, 1]).add("rx", [1], (1.0,))]
        for _ in range(6):
            c = Circuit(2)
            for _ in range(6):
                r = rng.random()
                if r < 0.3:
                    c.add("rz", [int(rng.integers(2))], (float(rng.uniform(-3, 3)),))
                elif r < 0.6:
                    c.add("h", [int(rng.integers(2))])
                else:
                    c.add("cx", [0, 1] if r < 0.9 else [1, 0])
            circuits.append(c.add("cx", [0, 1]))
        for c in circuits:
            lowered = lower(c, "rigetti_pulse", keep={("cx", (0, 1))})
            assert any(g.name == "cx" for g in lowered.gates)
            s = pulse.build_schedule(lowered, lib)
            _cp, latency = ir.critical_path(lowered, lib.durations())
            assert abs(s.makespan_ns - latency) <= 1e-9
    finally:
        lib.ags.clear()


def test_drive_angles_of_the_native_pulse_gates(chain_lib):
    # each gate is one drive event whose area is its rotation angle, about
    # its axis phase less the frame phase
    _dev, lib = chain_lib
    phi = 0.9
    c = (Circuit(1).add("sx", [0]).add("x", [0]).add("gpi2", [0], (phi,))
         .add("rz", [0], (0.4,)).add("gpi", [0], (phi,)))
    s = pulse.build_schedule(c, lib)
    area = pulse.unit_area(lib.drive_shape, lib.d1q_ns, s.events[0].waveform_params)
    assert [e.amplitude * area for e in s.events] == pytest.approx([PI / 2, PI, PI / 2, PI])
    assert [e.phase_rad for e in s.events] == pytest.approx([0.0, 0.0, phi, phi - 0.4])
    with pytest.raises(MissingTemplate):
        pulse.build_schedule(Circuit(1).add("y", [0]), lib)


def test_missing_template_for_unlowered_gate(chain_lib):
    _dev, lib = chain_lib
    with pytest.raises(MissingTemplate):
        pulse.build_schedule(Circuit(1).add("h", [0]), lib)


def test_schedule_json_schema(chain_lib):
    _dev, lib = chain_lib
    c = lower(Circuit(2).add("h", [0]).add("cx", [0, 1]).add("rz", [0], (0.3,)),
              "rigetti_pulse")
    s = pulse.build_schedule(c, lib)
    doc = json.loads(s.to_json())
    assert doc["version"] == "qasmtrans-pulse/1"
    assert set(doc) == {"version", "dt_ns", "events", "frames"}
    for e in doc["events"]:
        assert set(e) == {"t_start_ns", "duration_ns", "channel", "waveform",
                          "amplitude", "phase_rad", "detuning_hz"}
        assert set(e["channel"]) == {"kind", "index"}
        assert set(e["waveform"]) == {"name", "params"}
        assert e["waveform"]["name"] in ("gaussian", "flat_top", "constant")


def test_frame_correctness_random_1q(chain_lib):
    _dev, lib = chain_lib
    rng = np.random.default_rng(1)
    for _ in range(6):
        c = Circuit(1)
        for _ in range(7):
            r = rng.random()
            if r < 0.45:
                c.add("rz", [0], (float(rng.uniform(-3, 3)),))
            else:
                c.add("rx", [0], (float(rng.choice([PI / 2, PI, -PI / 2])),))
        s = pulse.build_schedule(c, lib)
        u = _simulate_schedule(s, [0])
        assert phase_distance(u, oracle.circuit_unitary(c)) < 1e-6


def test_frame_correctness_with_iswap(chain_lib):
    _dev, lib = chain_lib
    rng = np.random.default_rng(2)
    for _ in range(3):
        c = Circuit(2)
        for _ in range(8):
            r = rng.random()
            if r < 0.35:
                c.add("rz", [int(rng.integers(2))], (float(rng.uniform(-3, 3)),))
            elif r < 0.75:
                c.add("rx", [int(rng.integers(2))], (float(rng.choice([PI / 2, PI])),))
            else:
                c.add("iswap", [0, 1])
        s = pulse.build_schedule(c, lib)
        u = _simulate_schedule(s, [0, 1])
        assert phase_distance(u, oracle.circuit_unitary(c)) < 1e-5


def test_lowered_bell_schedule_simulates_to_bell(chain_lib):
    _dev, lib = chain_lib
    bell = Circuit(2).add("h", [0]).add("cx", [0, 1])
    c = lower(bell, "rigetti_pulse")
    s = pulse.build_schedule(c, lib)
    u = _simulate_schedule(s, [0, 1])
    assert phase_distance(u, oracle.circuit_unitary(bell)) < 1e-5


# ---------------------------------------------------------------------------
# AGS candidate ranking
# ---------------------------------------------------------------------------

def test_ags_single_gate_circuit():
    c = Circuit(1).add("rx", [0], (PI / 2,))
    out = pulse.ags_candidates(c, {"rx": 10.0})
    assert len(out) == 1
    assert out[0].cumulative_latency_ns == 10.0
    assert out[0].count == 1


def test_ags_repeated_sequence_ranks_first():
    # three occurrences of a 90 ns iswap-sandwich pattern on edge (0,1),
    # separated on the critical path by a spacer entangler on (1,2)
    c = Circuit(3)
    for block in range(3):
        c.add("iswap", [0, 1])
        c.add("rx", [0], (PI / 2,))
        c.add("iswap", [0, 1])
        if block < 2:
            c.add("iswap", [1, 2])
    durations = {"rx": 10.0, "iswap": 40.0, "rz": 0.0}
    out = pulse.ags_candidates(c, durations)
    top = out[0]
    assert top.qubits == (0, 1)
    assert top.count == 3
    assert top.cumulative_latency_ns == 3 * (40 + 10 + 40)
    spacer = next(cand for cand in out if cand.qubits == (1, 2))
    assert spacer.count == 2
    assert spacer.cumulative_latency_ns == 80.0


def test_ags_candidates_max_two_qubits():
    rng = np.random.default_rng(5)
    from conftest import random_circuit
    for _ in range(5):
        c = random_circuit(5, 40, rng)
        for cand in pulse.ags_candidates(c, {"cx": 40.0, "h": 10.0, "t": 10.0,
                                             "s": 10.0, "x": 10.0, "rz": 0.0, "rx": 10.0}):
            assert len(cand.qubits) <= 2


def test_ags_identification_linear_scaling():
    durations = {"rx": 10.0, "iswap": 40.0}

    def chain(n_blocks):
        c = Circuit(2)
        for _ in range(n_blocks):
            c.add("rx", [0], (PI / 2,))
            c.add("iswap", [0, 1])
        return c

    def timed(n_blocks):
        c = chain(n_blocks)
        cp, _ = ir.critical_path(c, durations)  # exclude cp build from timing
        best = math.inf
        # as in a CLI run, where the cyclic collector is paused
        with gc_paused():
            for _ in range(3):
                t0 = time.perf_counter()
                pulse.ags_candidates(c, durations)
                best = min(best, time.perf_counter() - t0)
        return best

    timed(500)  # warm up
    t1 = timed(2000)
    t2 = timed(4000)
    assert t2 / t1 <= 2.5 + 1.0  # linear with generous slack for timer noise


def test_ags_signature_pair_permutation_invariant():
    c1 = Circuit(2).add("rx", [0], (PI / 2,)).add("iswap", [0, 1])
    c2 = Circuit(2).add("rx", [1], (PI / 2,)).add("iswap", [1, 0])
    d = {"rx": 10.0, "iswap": 40.0}
    s1 = pulse.ags_candidates(c1, d)[0].signature
    s2 = pulse.ags_candidates(c2, d)[0].signature
    assert s1 == s2


# ---------------------------------------------------------------------------
# AshN synthesis
# ---------------------------------------------------------------------------

def test_ashn_iswap_family_near_zero_drives():
    g = 0.05
    entry = pulse.synthesize_ashn(gates.matrix("iswap"), g=g, budget=150, seed=0,
                                  max_drive=0.5)
    assert entry.fidelity >= 0.9999
    assert abs(entry.params.omega1) < 0.05 and abs(entry.params.omega2) < 0.05


def test_ashn_identity_target_trivial():
    entry = pulse.synthesize_ashn(np.eye(4, dtype=complex), g=0.05)
    assert entry.params.t_ns == 0.0
    assert entry.fidelity == pytest.approx(1.0)


def test_ashn_cnot_reaches_high_fidelity():
    entry = pulse.synthesize_ashn(gates.matrix("cx"), g=0.05236, budget=300, seed=0,
                                  max_drive=0.5)
    assert entry.fidelity >= 0.999
    # the corrected gate really is a CX
    model = pulse.ashn_model(entry.params.omega1, entry.params.omega2,
                             entry.params.delta, entry.params.g, entry.params.t_ns,
                             dt_ns=0.1)
    u = pulsesim.propagate(model, entry.params.t_ns)
    dressed = np.kron(entry.post[0], entry.post[1]) @ u @ np.kron(entry.pre[0], entry.pre[1])
    assert pulsesim.avg_gate_fidelity(dressed, gates.matrix("cx")) >= 0.999


def test_ashn_deterministic():
    a = pulse.synthesize_ashn(gates.matrix("cx"), g=0.05, budget=120, seed=3)
    b = pulse.synthesize_ashn(gates.matrix("cx"), g=0.05, budget=120, seed=3)
    assert a.params == b.params


def test_ashn_schedule_emission(chain_lib, cx_entry):
    dev, lib = chain_lib
    entry = cx_entry
    lib.add_ags("cx", (0, 1), entry)
    c = Circuit(2).add("rz", [0], (0.3,)).add("cx", [0, 1])
    s = pulse.build_schedule(c, lib)
    kinds = {e.channel_kind for e in s.events}
    assert "coupler" in kinds and "drive" in kinds
    # simulated schedule implements rz-then-cx at the calibrated fidelity
    u = _simulate_schedule(s, [0, 1], dt=0.05)
    ref = oracle.circuit_unitary(Circuit(2).add("rz", [0], (0.3,)).add("cx", [0, 1]))
    assert pulsesim.avg_gate_fidelity(u, ref) >= entry.fidelity - 1e-3
    lib.ags.clear()


def test_ags_replacement_reduces_makespan_property(chain_lib, cx_entry):
    # whenever the calibrated entry is shorter than the decomposed sequence,
    # substituting it strictly reduces the schedule makespan
    dev, lib = chain_lib
    entry = cx_entry
    lib.add_ags("cx", (0, 1), entry)
    rng = np.random.default_rng(11)
    try:
        for _ in range(4):
            c = Circuit(2)
            for _ in range(int(rng.integers(3, 8))):
                r = rng.random()
                if r < 0.3:
                    c.add("rz", [int(rng.integers(2))], (float(rng.uniform(-3, 3)),))
                elif r < 0.6:
                    c.add("h", [int(rng.integers(2))])
                else:
                    c.add("cx", [0, 1])
            if not any(g.name == "cx" for g in c.gates):
                c.add("cx", [0, 1])
            base = pulse.build_schedule(lower(c, "rigetti_pulse"), lib)
            ags = pulse.build_schedule(lower(c, "rigetti_pulse", keep={("cx", (0, 1))}), lib)
            assert entry.duration_with_corrections(lib.d1q_ns) < 130.0
            assert ags.makespan_ns < base.makespan_ns
    finally:
        lib.ags.clear()


def test_schedule_json_roundtrip(chain_lib):
    _dev, lib = chain_lib
    c = lower(Circuit(2).add("h", [0]).add("cx", [0, 1]).add("rz", [1], (0.4,)),
              "rigetti_pulse")
    s = pulse.build_schedule(c, lib)
    again = pulse.schedule_from_json(s.to_json())
    assert again.makespan_ns == s.makespan_ns
    assert len(again.events) == len(s.events)
    for a, b in zip(again.events, s.events):
        assert a.to_json_dict() == b.to_json_dict()
    assert again.frames.to_dict() == s.frames.to_dict()


def test_simulate_schedule_report(chain_lib):
    dev, lib = chain_lib
    c = lower(Circuit(2).add("h", [0]).add("cx", [0, 1]), "rigetti_pulse")
    s = pulse.build_schedule(c, lib)
    report = pulse.simulate_schedule(s, dev)
    assert set(report) == {"final_fidelity", "trace_error", "makespan_ns"}
    assert 0.9 < report["final_fidelity"] <= 1.0
    assert report["trace_error"] <= 1e-8
    assert report["makespan_ns"] == s.makespan_ns
