"""DAG, 3-qubit decomposition, and statistics tests."""
import json

import numpy as np
import pytest

from qasmtrans import gates, ir, oracle
from qasmtrans.circuit import Circuit, GateIR
from qasmtrans.errors import NotInFront, UnsupportedGate

from conftest import random_circuit


# ---------------------------------------------------------------------------
# build_dag / advance_front
# ---------------------------------------------------------------------------

def test_dag_empty():
    d = ir.build_dag(Circuit(2))
    assert d.front == set() and d.future == set()
    assert d.done()


def test_dag_parallel_h():
    d = ir.build_dag(Circuit(2).add("h", [0]).add("h", [1]))
    assert d.front == {0, 1}
    assert d.future == set()


def test_dag_three_gate_chain():
    c = Circuit(2).add("h", [0]).add("cx", [0, 1]).add("h", [1])
    d = ir.build_dag(c)
    assert d.front == {0}
    assert d.succ[0] == [1] and d.succ[1] == [2]
    assert d.preds == [(), (0,), (1,)]


def test_advance_front_serial_chain():
    c = Circuit(1).add("h", [0]).add("x", [0]).add("h", [0])
    d = ir.build_dag(c)
    d.advance_front([0])
    assert d.front == {1}


def test_advance_front_parallel_then_cx():
    c = Circuit(2).add("h", [0]).add("h", [1]).add("cx", [0, 1])
    d = ir.build_dag(c)
    d.advance_front([0, 1])
    assert d.front == {2}


def test_advance_front_rejects_non_front():
    c = Circuit(2).add("h", [0]).add("cx", [0, 1])
    d = ir.build_dag(c)
    with pytest.raises(NotInFront):
        d.advance_front([1])


def test_advance_front_counts():
    c = Circuit(2).add("h", [0]).add("cx", [0, 1]).add("h", [1])
    d = ir.build_dag(c)
    assert d.executed_count + len(d.front) + len(d.future) == 3
    d.advance_front([0])
    assert d.executed_count + len(d.front) + len(d.future) == 3
    assert d.front.isdisjoint(d.future)


def test_full_drain_visits_topological_order():
    rng = np.random.default_rng(5)
    for size in (50, 400, 2000):
        c = random_circuit(8, size, rng)
        d = ir.build_dag(c)
        order = ir.topological_order(d)
        assert sorted(order) == list(range(size))
        # reference topological sort: position respects every dependency
        pos = {node: i for i, node in enumerate(order)}
        last = {}
        for i, g in enumerate(c.gates):
            for q in g.qubits:
                if q in last:
                    assert pos[last[q]] < pos[i]
                last[q] = i
        assert d.done()


# ---------------------------------------------------------------------------
# decompose_3q
# ---------------------------------------------------------------------------

def test_decompose_ccx_counts():
    dec = ir.decompose_3q(Circuit(3).add("ccx", [0, 1, 2]))
    n1 = sum(1 for g in dec.gates if g.num_qubits == 1)
    n2 = sum(1 for g in dec.gates if g.num_qubits == 2)
    assert (n2, n1) == (6, 9)
    assert all(g.name == "cx" for g in dec.gates if g.num_qubits == 2)
    dev = oracle.phase_aligned_distance(oracle.circuit_unitary(dec),
                                        gates.defining_matrix("ccx"))
    assert dev < 1e-9


def test_decompose_no_3q_returns_same_object():
    c = Circuit(2).add("h", [0]).add("cx", [0, 1])
    assert ir.decompose_3q(c) is c


@pytest.mark.parametrize("name", ["cswap", "rccx", "rc3x", "c3x", "c3sqrtx"])
def test_decompose_oracle_equivalence(name):
    nq = gates.GATE_INFO[name][0]
    c = Circuit(nq).add(name, list(range(nq)))
    dec = ir.decompose_3q(c)
    assert all(g.num_qubits <= 2 for g in dec.gates)
    dev = oracle.phase_aligned_distance(oracle.circuit_unitary(dec),
                                        gates.defining_matrix(name))
    assert dev < 1e-9, (name, dev)


def test_decompose_preserves_measurements_and_width():
    c = Circuit(4).add("ccx", [0, 1, 2]).add("h", [3])
    c.measure(3, 0)
    dec = ir.decompose_3q(c)
    assert dec.num_qubits == 4
    assert dec.measurements == [(3, 0)]


def test_decompose_rejects_unknown_multiqubit():
    c = Circuit(3)
    from qasmtrans.circuit import GateIR
    g = GateIR.__new__(GateIR)
    g.name, g.qubits, g.params = "mystery3", (0, 1, 2), ()
    c.gates.append(g)
    with pytest.raises(UnsupportedGate):
        ir.decompose_3q(c)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_adder_matches_table(circuits):
    s = ir.stats(circuits["adder_n4"])
    assert s.depth == 12
    assert s.total_gates == 27
    assert s.one_qubit_gates == 17


def test_stats_bv_matches_table(circuits):
    s = ir.stats(circuits["bv_n14"])
    assert s.depth == 17
    assert s.total_gates == 41
    assert s.one_qubit_gates == 28


def test_stats_single_h():
    s = ir.stats(Circuit(1).add("h", [0]))
    assert s.depth == 1
    assert s.gate_density == 1.0
    assert s.retention_lifespan == 1
    assert s.measurement_density == 0.0


def test_stats_consistency_invariants(circuits):
    for c in circuits.values():
        s = ir.stats(c)
        assert s.depth <= s.total_gates
        assert 0 < s.gate_density <= 1
        assert s.one_qubit_gates + s.two_qubit_gates == s.total_gates
        assert s.entanglement_variance >= 0
        assert s.measurement_density >= 0


def test_stats_json_keys(circuits):
    d = json.loads(ir.stats(circuits["bell"]).to_json())
    assert sorted(d) == sorted(["depth", "gate_density", "retention_lifespan",
                                "measurement_density", "entanglement_variance",
                                "gates_1q", "gates_2q", "gates_total"])
    text = ir.stats(circuits["bell"]).to_text()
    assert "depth:" in text


def test_depth_invariant_under_disjoint_adjacent_swaps():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_circuit(5, 40, rng)
        base = ir.stats(c).depth
        gates_ = list(c.gates)
        for _ in range(30):
            i = int(rng.integers(len(gates_) - 1))
            a, b = gates_[i], gates_[i + 1]
            if set(a.qubits) & set(b.qubits):
                continue
            gates_[i], gates_[i + 1] = b, a
        shuffled = Circuit(5, gates_)
        assert ir.stats(shuffled).depth == base


def test_critical_path_latency_with_durations():
    c = Circuit(2).add("h", [0]).add("cx", [0, 1])
    assert ir.critical_path(c, {"h": 10.0, "cx": 40.0})[1] == 50.0
    # a (name, qubits) entry is read before the name
    table = ir.DurationTable({"cx": 40.0}, at={("cx", (0, 1)): 70.0})
    assert table.duration(GateIR("cx", (0, 1))) == 70.0
    assert table.duration(GateIR("cx", (1, 0))) == 40.0
    c = Circuit(3).add("cx", [1, 2]).add("cx", [0, 1]).add("barrier", [0, 1, 2])
    assert ir.critical_path(c, table) == ([c.gates[0], c.gates[1]], 110.0)


def test_barrier_occupies_a_layer():
    plain = Circuit(2).add("h", [0]).add("h", [1])
    with_barrier = Circuit(2).add("h", [0]).add("barrier", [0, 1]).add("h", [1])
    assert ir.stats(plain).depth == 1
    assert ir.stats(with_barrier).depth == 3


def test_full_drain_10k_gates():
    rng = np.random.default_rng(77)
    c = random_circuit(12, 10_000, rng)
    d = ir.build_dag(c)
    order = ir.topological_order(d)
    assert len(order) == 10_000
    pos = {node: i for i, node in enumerate(order)}
    last = {}
    for i, g in enumerate(c.gates):
        for q in g.qubits:
            if q in last:
                assert pos[last[q]] < pos[i]
            last[q] = i
