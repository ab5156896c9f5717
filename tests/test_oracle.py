"""Statevector oracle tests: simulation, unitary assembly, equivalence."""
import math

import numpy as np
import pytest

from qasmtrans import devicelib, gates, ir, oracle, qasm
from qasmtrans.circuit import Circuit, GateIR
from qasmtrans.errors import DimensionMismatch, TooManyQubits
from qasmtrans.lowering import lower
from qasmtrans.transpile import transpile

from conftest import phase_distance, random_circuit

SQ2 = 1 / math.sqrt(2)


def test_simulate_single_h():
    psi = oracle.simulate(Circuit(1).add("h", [0]))
    assert np.allclose(psi, [SQ2, SQ2])


def test_simulate_bell():
    psi = oracle.simulate(Circuit(2).add("h", [0]).add("cx", [0, 1]))
    assert np.allclose(psi, [SQ2, 0, 0, SQ2])


def test_simulate_ghz5(circuits):
    psi = oracle.simulate(circuits["ghz_n5"].without_measurements())
    assert abs(abs(psi[0]) - SQ2) < 1e-12
    assert abs(abs(psi[-1]) - SQ2) < 1e-12
    assert np.count_nonzero(np.abs(psi) > 1e-12) == 2


def test_simulate_norm_preserved():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = random_circuit(5, 30, rng)
        psi = oracle.simulate(c)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_simulate_qubit_cap():
    with pytest.raises(TooManyQubits):
        oracle.simulate(Circuit(15).add("h", [0]))


def test_simulate_custom_initial_state():
    psi0 = np.zeros(4, dtype=complex)
    psi0[2] = 1.0  # |10>
    psi = oracle.simulate(Circuit(2).add("cx", [0, 1]), psi0)
    assert np.allclose(psi, [0, 0, 0, 1])
    with pytest.raises(DimensionMismatch):
        oracle.simulate(Circuit(2).add("h", [0]), np.zeros(3))


def test_circuit_unitary_empty_is_identity():
    assert np.allclose(oracle.circuit_unitary(Circuit(3)), np.eye(8))


def test_circuit_unitary_ccx_vs_decomposition():
    c = Circuit(3).add("ccx", [0, 1, 2])
    dec = ir.decompose_3q(c)
    dev = oracle.phase_aligned_distance(oracle.circuit_unitary(dec),
                                        oracle.circuit_unitary(c))
    assert dev < 1e-9


def test_circuit_unitary_lowered_h():
    out = lower(Circuit(1).add("h", [0]), "ibmq")
    assert phase_distance(oracle.circuit_unitary(out), gates.matrix("h")) < 1e-12


def test_unitary_columns_match_basis_simulation():
    rng = np.random.default_rng(1)
    c = random_circuit(3, 15, rng)
    u = oracle.circuit_unitary(c)
    for k in range(8):
        e = np.zeros(8, dtype=complex)
        e[k] = 1.0
        assert np.allclose(u[:, k], oracle.simulate(c, e), atol=1e-12)


def test_circuit_unitary_cap():
    with pytest.raises(TooManyQubits):
        oracle.circuit_unitary(Circuit(8).add("h", [0]))


def test_equivalent_reflexive():
    rng = np.random.default_rng(2)
    c = random_circuit(4, 20, rng)
    ok, dev = oracle.equivalent(c, c)
    assert ok and dev < 1e-14


def test_equivalent_symmetric():
    rng = np.random.default_rng(3)
    c1 = random_circuit(3, 15, rng)
    c2 = lower(c1, "rigetti")
    ok_ab, _ = oracle.equivalent(c1, c2)
    ok_ba, _ = oracle.equivalent(c2, c1)
    assert ok_ab and ok_ba


def test_equivalent_distinguishes_x_z():
    ok, dev = oracle.equivalent(Circuit(1).add("x", [0]), Circuit(1).add("z", [0]))
    assert not ok and dev > 0.5


def test_equivalent_layout_permutation_aware():
    c1 = Circuit(2).add("x", [0])
    c2 = Circuit(2).add("x", [1])
    ok, _ = oracle.equivalent(c1, c2)
    assert not ok
    ok, dev = oracle.equivalent(c1, c2, layout_perm=[1, 0])
    assert ok and dev < 1e-12


def test_equivalent_global_phase_invariant():
    c1 = Circuit(1).add("rz", [0], (0.8,))
    c2 = Circuit(1).add("u3", [0], (0.0, 0.5, 0.3))  # same up to global phase
    ok, dev = oracle.equivalent(c1, c2)
    assert ok, dev


def test_pipeline_equivalent_full_flow(circuits, toronto):
    from qasmtrans import route
    circ = circuits["qaoa_n6"]
    flat = ir.decompose_3q(circ)
    result = route.sabre_route(flat, toronto, seed=2)
    lowered = lower(result.circuit, "quantinuum")
    ok, dev = oracle.pipeline_equivalent(
        circ, lowered, result.initial_layout.virt_to_phys,
        result.final_layout.virt_to_phys, tol=1e-8)
    assert ok, dev


def test_permutation_matrix_roundtrip():
    rng = np.random.default_rng(4)
    perm = list(rng.permutation(4))
    p = oracle.permutation_matrix(perm)
    assert np.allclose(p @ p.conj().T, np.eye(16))
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.allclose(p @ psi, oracle.permute_state(psi, perm))


def test_relabel_matches_dense_permutation_products():
    # the oracle applies layouts as axis transposes; they must equal the
    # dense P(rows)^dag U P(cols) products they replace
    rng = np.random.default_rng(9)
    u = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rows, cols = list(rng.permutation(4)), list(rng.permutation(4))
    dense = oracle.permutation_matrix(rows).conj().T @ u @ oracle.permutation_matrix(cols)
    assert np.array_equal(oracle._relabel(u, rows, cols), dense)
    with pytest.raises(DimensionMismatch):
        oracle.equivalent(Circuit(2).add("x", [0]), Circuit(2).add("x", [1]),
                          layout_perm=[0, 0])


def test_probe_path_rejects_mutants():
    # 9 circuit qubits on a 12-qubit grid: above MAX_UNITARY_QUBITS, so the
    # batched statevector probes decide
    rng = np.random.default_rng(21)
    circ = random_circuit(9, 60, rng)
    res = transpile(circ, devicelib.grid(3, 4))
    routed, initial, final = res.circuit, res.initial_layout, res.final_layout
    assert circ.num_qubits > oracle.MAX_UNITARY_QUBITS
    ok, dev = oracle.pipeline_equivalent(circ, routed, initial, final)
    assert ok, dev

    def with_gates(before=(), after=()):
        return Circuit(routed.num_qubits, [*before, *routed.gates, *after])

    # leaves |0..0> unchanged: only the random product probes see it
    phased = with_gates(before=[GateIR("u1", (initial[0],), (1e-3,))])
    assert oracle.pipeline_equivalent(circ, phased, initial, final, num_states=0)[0]
    ok, dev = oracle.pipeline_equivalent(circ, phased, initial, final)
    assert not ok and dev > 1e-6
    # a physical qubit that holds no virtual qubit at the end must be |0>
    spare = min(set(range(routed.num_qubits)) - set(final))
    excited = with_gates(after=[GateIR("x", (spare,))])
    ok, dev = oracle.pipeline_equivalent(circ, excited, initial, final)
    assert not ok and dev > 0.5
    swapped = [final[1], final[0], *final[2:]]
    ok, dev = oracle.pipeline_equivalent(circ, routed, initial, swapped)
    assert not ok and dev > 1e-4
