"""Basis lowering tests: ZXZ Euler form, vendor rules, idempotence, and the
whole compile path: a pinned output digest and the trusted-gate guard."""
import hashlib
import json
import math

import numpy as np
import pytest

import qasmtrans.lowering as lower
from qasmtrans import devicelib, gates, ir, oracle, qasm, route
from qasmtrans.circuit import Circuit, GateIR
from qasmtrans.errors import NoRuleFor
from qasmtrans.lowering import VENDOR_BASES, lower_1q_zxz
from qasmtrans.pulsesim import avg_gate_fidelity
from qasmtrans.transpile import TranspileOptions, transpile

from conftest import FIXTURE_NAMES, phase_distance, random_circuit, random_unitary

ALL_BASES = ["ibmq", "rigetti", "ionq", "quantinuum", "rigetti_pulse"]


def _reconstruct_zxz(a, b, g):
    return gates.matrix("rz", (a,)) @ gates.matrix("rx", (b,)) @ gates.matrix("rz", (g,))


# ---------------------------------------------------------------------------
# lower_1q_zxz
# ---------------------------------------------------------------------------

def test_zxz_identity():
    a, b, g = lower_1q_zxz(np.eye(2))
    assert b == 0.0
    assert (a + g) % (2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_zxz_rx_axis_case():
    a, b, g = lower_1q_zxz(gates.matrix("rx", (0.7,)))
    assert (a % (2 * math.pi), b, g % (2 * math.pi)) == pytest.approx((0.0, 0.7, 0.0), abs=1e-12)


def test_zxz_hadamard():
    angles = lower_1q_zxz(gates.matrix("h"))
    assert phase_distance(_reconstruct_zxz(*angles), gates.matrix("h")) < 1e-9


def test_zxz_random_su2_reconstruction_fidelity():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = random_unitary(2, rng)
        a, b, g = lower_1q_zxz(u)
        assert 0.0 <= b <= math.pi + 1e-12
        f = avg_gate_fidelity(_reconstruct_zxz(a, b, g), u)
        assert f >= 1 - 1e-12


# ---------------------------------------------------------------------------
# vendor rules
# ---------------------------------------------------------------------------

def test_rz_unchanged_under_ibmq():
    c = Circuit(1).add("rz", [0], (0.5,))
    out = lower.lower(c, "ibmq")
    assert [(g.name, g.params) for g in out.gates] == [("rz", (0.5,))]


def test_h_under_ibmq_is_rz_sx_rz():
    out = lower.lower(Circuit(1).add("h", [0]), "ibmq")
    assert [g.name for g in out.gates] == ["rz", "sx", "rz"]
    assert all(p == pytest.approx(math.pi / 2) for g in out.gates if g.params for p in g.params)
    u = oracle.circuit_unitary(out)
    assert phase_distance(u, gates.matrix("h")) < 1e-12


def test_cx_under_rigetti_is_cz_conjugation():
    out = lower.lower(Circuit(2).add("cx", [0, 1]), "rigetti")
    assert sum(1 for g in out.gates if g.name == "cz") == 1
    assert phase_distance(oracle.circuit_unitary(out), gates.matrix("cx")) < 1e-12


@pytest.mark.parametrize("basis", ALL_BASES)
def test_cx_matrix_pinned_per_basis(basis):
    out = lower.lower(Circuit(2).add("cx", [0, 1]), basis)
    assert phase_distance(oracle.circuit_unitary(out), gates.matrix("cx")) < 1e-10
    native = VENDOR_BASES[basis].gate_names()
    assert all(g.name in native for g in out.gates)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_basis_closure_and_equivalence_random(basis):
    rng = np.random.default_rng(hash(basis) % 2**31)
    native = VENDOR_BASES[basis].gate_names()
    for _ in range(6):
        c = random_circuit(3, 25, rng,
                           two_q_names=("cx", "cz", "swap", "crz", "cu1", "rzz"),
                           one_q_names=("h", "t", "sdg", "x", "y", "rz", "rx", "ry", "u3", "u2"))
        out = lower.lower(c, basis)
        assert all(g.name in native for g in out.gates)
        ok, dev = oracle.equivalent(c, out, tol=1e-8)
        assert ok, (basis, dev)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_lower_idempotent(basis):
    rng = np.random.default_rng(17)
    for _ in range(4):
        c = random_circuit(3, 20, rng)
        once = lower.lower(c, basis)
        twice = lower.lower(once, basis)
        assert twice.structurally_equal(once)


def test_lower_preserves_interaction_pairs(toronto):
    from qasmtrans import route
    rng = np.random.default_rng(23)
    c = random_circuit(6, 40, rng)
    routed = route.sabre_route(c, toronto, seed=1).circuit
    for basis in ALL_BASES:
        out = lower.lower(routed, basis)
        pairs_in = {tuple(sorted(g.qubits)) for g in routed.gates if g.num_qubits == 2}
        pairs_out = {tuple(sorted(g.qubits)) for g in out.gates if g.num_qubits == 2}
        assert pairs_out <= pairs_in


def test_rigetti_rx_quantization():
    out = lower.lower(Circuit(1).add("rx", [0], (math.pi / 2,)), "rigetti")
    assert [(g.name, g.params) for g in out.gates] == [("rx", (math.pi / 2,))]
    out = lower.lower(Circuit(1).add("rx", [0], (-math.pi / 2,)), "rigetti")
    assert [(g.name, g.params) for g in out.gates] == [("rx", (-math.pi / 2,))]
    out = lower.lower(Circuit(1).add("rx", [0], (0.3,)), "rigetti")
    assert all(g.params[0] == pytest.approx(math.pi / 2) for g in out.gates if g.name == "rx")
    assert phase_distance(oracle.circuit_unitary(out), gates.matrix("rx", (0.3,))) < 1e-9


def test_adjacent_rz_merging():
    c = Circuit(1).add("rz", [0], (0.3,)).add("rz", [0], (0.4,))
    out = lower.lower(c, "ibmq")
    assert [(g.name, g.params[0]) for g in out.gates] == [("rz", pytest.approx(0.7))]
    cancel = Circuit(1).add("rz", [0], (0.3,)).add("rz", [0], (-0.3,))
    assert lower.lower(cancel, "ibmq").gates == []


def test_rz_not_merged_across_barrier():
    c = Circuit(1).add("rz", [0], (0.3,)).add("barrier", [0]).add("rz", [0], (0.4,))
    out = lower.lower(c, "ibmq")
    assert [g.name for g in out.gates] == ["rz", "barrier", "rz"]


def test_id_dropped():
    assert lower.lower(Circuit(1).add("id", [0]), "ibmq").gates == []


def test_measurements_survive_lowering():
    c = Circuit(2).add("h", [0]).add("cx", [0, 1])
    c.measure(0, 0)
    c.measure(1, 1)
    out = lower.lower(c, "quantinuum")
    assert out.measurements == [(0, 0), (1, 1)]


def test_no_rule_for_unknown_basis():
    with pytest.raises(NoRuleFor):
        lower.lower(Circuit(1).add("h", [0]), "mystery_vendor")


def test_no_rule_for_foreign_entangler():
    # iswap has no rule under ibmq (2q resynthesis is out of scope)
    with pytest.raises(NoRuleFor):
        lower.lower(Circuit(2).add("iswap", [0, 1]), "ibmq")


# ---------------------------------------------------------------------------
# the whole compile path, pinned
# ---------------------------------------------------------------------------

# sha256 of the emitted programs, statistics and latencies below: a change
# anywhere on the compile path that moves one output byte changes it
GOLDEN_COMPILE_DIGEST = "5b7d84949a54ab76f418c96ae69f11b488e3f20c3d2204586e1131df9ad78dd2"

# gate name -> ns; names missing here take 0 ns
_DURATIONS = {"cx": 300.0, "cz": 220.0, "zz": 250.5, "ms": 600.0, "iswap": 180.0,
              "sx": 35.5, "x": 35.5, "rx": 40.25, "gpi": 10.0, "gpi2": 10.0,
              "u3": 50.0, "h": 35.5, "t": 0.0, "rz": 0.0, "gz": 0.0}


def _golden_circuit() -> Circuit:
    """~2k gates on 21 qubits: nearest-neighbour and a few remote cx, random
    rz/u3 angles, barriers on one and on all qubits, a ccx, a cu1 and
    measurements."""
    rng = np.random.default_rng(20)
    n = 21
    c = Circuit(n)
    for step in range(2000):
        if step == 500:
            c.add("barrier", [7])
        elif step == 1000:
            c.add("barrier", range(n))
        elif step == 1200:
            c.add("ccx", [3, 9, 5])
        elif step == 1500:
            c.add("cu1", [12, 8], (float(rng.uniform(-np.pi, np.pi)),))
        r = rng.random()
        if r < 0.35:
            a = int(rng.integers(n - 1))
            c.add("cx", [a, a + 1] if rng.random() < 0.5 else [a + 1, a])
        elif r < 0.37:
            a, b = map(int, rng.choice(n, 2, replace=False))
            c.add("cx", [a, b])
        elif r < 0.6:
            c.add("rz", [int(rng.integers(n))], (float(rng.uniform(-np.pi, np.pi)),))
        elif r < 0.8:
            c.add("u3", [int(rng.integers(n))],
                  tuple(float(x) for x in rng.uniform(-np.pi, np.pi, 3)))
        else:
            c.add(("h", "sx", "t", "x")[int(rng.integers(4))], [int(rng.integers(n))])
    for q in range(n):
        c.measure(q, q)
    return c


def _compile_digest() -> str:
    circ = _golden_circuit()
    dev = devicelib.line(21)
    h = hashlib.sha256()

    def record(c: Circuit):
        h.update(qasm.emit_qasm(c).encode())
        h.update(json.dumps(ir.stats(c).to_dict(), sort_keys=True).encode())
        h.update(repr(ir.stats(c, _DURATIONS).latency_ns).encode())

    record(circ)
    # the parser's own path: composition gates expand at parse time
    parsed = qasm.parse_text(qasm.emit_qasm(circ))
    record(parsed)
    jobs = [(circ, b) for b in ALL_BASES] + [(parsed, "ibmq")]
    for c, basis in jobs:
        r = transpile(c, dev, TranspileOptions(seed=3, basis=basis))
        record(r.circuit)
        h.update(repr((r.initial_layout, r.final_layout, r.swaps_inserted)).encode())
    return h.hexdigest()


def test_compiled_output_is_pinned():
    assert _compile_digest() == GOLDEN_COMPILE_DIGEST


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trusted_gates_pass_the_checked_constructor(circuits, toronto, name):
    # the parser, router and lowering build gates unchecked; each must be
    # one the checked constructor builds unchanged, with plain Python types
    # (repr(np.float64(1.5)) is 'np.float64(1.5)', which would reach the
    # emitted text)
    parsed = circuits[name]
    routed = route.sabre_route(ir.decompose_3q(parsed), toronto, seed=1).circuit
    outputs = [parsed, routed] + [lower.lower(routed, basis) for basis in ALL_BASES]
    for c in outputs:
        for g in c.gates:
            assert GateIR(g.name, g.qubits, g.params) == g
            assert type(g.qubits) is tuple and all(type(q) is int for q in g.qubits)
            assert type(g.params) is tuple and all(type(p) is float for p in g.params)
