"""Routing tests: Sabre behaviour, incremental-front equivalence, pinned
routing output, constrained routing through `transpile`, and qubit
prioritization."""
import hashlib

import numpy as np
import pytest

from qasmtrans import devicelib, ir, oracle, qasm, route
from qasmtrans.transpile import TranspileOptions, transpile
from qasmtrans.circuit import Circuit
from qasmtrans.errors import Disconnected, NotAPermutation, TooManyQubits, UnsupportedGate
from qasmtrans.route import RoutingOptions

from conftest import random_circuit


def _check_topology(circ, dev):
    for g in circ.gates:
        if g.num_qubits == 2:
            assert dev.coupling.has_edge(*g.qubits), g


def _check_pipeline(circ, result, tol=1e-8):
    ok, dev_val = oracle.pipeline_equivalent(
        circ, result.circuit,
        result.initial_layout.virt_to_phys, result.final_layout.virt_to_phys, tol=tol)
    assert ok, f"deviation {dev_val}"


# ---------------------------------------------------------------------------
# sabre_route
# ---------------------------------------------------------------------------

def test_bell_on_complete_device_no_swaps():
    bell = Circuit(2).add("h", [0]).add("cx", [0, 1])
    r = route.sabre_route(bell, devicelib.complete(2))
    assert r.swaps_inserted == 0
    assert [g.name for g in r.circuit.gates] == ["h", "cx"]


def test_remote_cx_on_chain_single_swap():
    c = Circuit(3).add("cx", [0, 2])
    r = route.sabre_route(c, devicelib.line(3))
    assert r.swaps_inserted == 1
    # brute force: no zero-swap legalization exists under the identity layout,
    # and some single swap must suffice
    dev = devicelib.line(3)
    assert not dev.coupling.has_edge(0, 2)
    one_swap_works = any(
        dev.coupling.has_edge(*_apply_swap((0, 2), s))
        for s in dev.coupling.edges)
    assert one_swap_works
    _check_topology(r.circuit, dev)
    _check_pipeline(c, route.sabre_route(c, dev))


def _apply_swap(pair, swap):
    a, b = swap
    remap = {a: b, b: a}
    return tuple(remap.get(p, p) for p in pair)


def test_qec_on_toronto_oracle_equivalence(circuits, toronto):
    circ = circuits["qec_n5"]
    r = route.sabre_route(circ, toronto, seed=7)
    _check_topology(r.circuit, toronto)
    # regression values, not paper-pinned
    assert r.swaps_inserted >= 0
    ok, dev_val = oracle.pipeline_equivalent(
        circ, r.circuit, r.initial_layout.virt_to_phys, r.final_layout.virt_to_phys)
    assert ok, dev_val


def test_routed_measurements_follow_final_layout(circuits, line5):
    circ = circuits["ghz_n5"]
    r = route.sabre_route(circ, line5, seed=1)
    final = r.final_layout.virt_to_phys
    assert sorted(r.circuit.measurements) == sorted((final[q], c) for q, c in circ.measurements)


def test_complete_graph_routes_any_circuit_without_swaps():
    rng = np.random.default_rng(3)
    dev = devicelib.complete(6)
    for _ in range(10):
        c = random_circuit(6, 50, rng)
        r = route.sabre_route(c, dev, seed=0)
        assert r.swaps_inserted == 0


def test_swap_expansion_cx_accounting():
    rng = np.random.default_rng(4)
    dev = devicelib.line(5)
    for seed in range(5):
        c = random_circuit(5, 40, rng)
        expanded = route.sabre_route(c, dev, seed=seed)
        cx_in = sum(1 for g in c.gates if g.name == "cx")
        cx_out = sum(1 for g in expanded.circuit.gates if g.name == "cx")
        assert cx_out - cx_in == 3 * expanded.swaps_inserted


def test_incremental_equals_rescan_small():
    rng = np.random.default_rng(5)
    dev = devicelib.grid(3, 3)
    for trial in range(10):
        c = random_circuit(8, 60, rng)
        for seed in (0, 1):
            a = route.sabre_route(c, dev, seed=seed)
            b = route.sabre_route(c, dev, seed=seed,
                                  opts=RoutingOptions(front_mode="rescan"))
            assert a.circuit.structurally_equal(b.circuit)
            assert a.swaps_inserted == b.swaps_inserted


def test_determinism_byte_identical(toronto):
    rng1 = np.random.default_rng(8)
    rng2 = np.random.default_rng(8)
    c1 = random_circuit(10, 80, rng1, measure=True)
    c2 = random_circuit(10, 80, rng2, measure=True)
    out1 = qasm.emit_qasm(route.sabre_route(c1, toronto, seed=3).circuit)
    out2 = qasm.emit_qasm(route.sabre_route(c2, toronto, seed=3).circuit)
    assert out1 == out2


def test_seed_changes_tie_breaks_only_validly(toronto):
    rng = np.random.default_rng(9)
    c = random_circuit(8, 60, rng)
    for seed in (0, 1, 2):
        r = route.sabre_route(c, toronto, seed=seed)
        _check_topology(r.circuit, toronto)


def test_barriers_route_in_order():
    c = Circuit(3).add("h", [0]).add("barrier", [0, 1, 2]).add("cx", [0, 2])
    dev = devicelib.line(3)
    r = route.sabre_route(c, dev, seed=0)
    names = [g.name for g in r.circuit.gates]
    assert names[1] == "barrier"


def test_refinement_rounds_still_equivalent(circuits, line5):
    circ = circuits["qec_n5"]
    r = route.sabre_route(circ, line5, seed=0, opts=RoutingOptions(refinement_rounds=3))
    _check_topology(r.circuit, line5)
    _check_pipeline(circ, r)


def test_route_errors():
    with pytest.raises(TooManyQubits):
        route.sabre_route(Circuit(5).add("h", [4]), devicelib.line(3))
    with pytest.raises(UnsupportedGate):
        route.sabre_route(Circuit(3).add("ccx", [0, 1, 2]), devicelib.line(3))
    disc = devicelib.make_device("disc", 4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        route.sabre_route(Circuit(4).add("cx", [0, 2]), disc)


# sha256 of the routed (name, qubits) lists, layouts and swap counts below:
# a change to swap selection that moves any routed gate changes it
GOLDEN_ROUTING_DIGEST = "0cc3cb551ce4080c69fcc9560ab1164f70b0803ed01b6edac3d596aeb7433fba"


def _routing_digest() -> str:
    rng = np.random.default_rng(19)
    plain = [RoutingOptions(), RoutingOptions(extended_set_size=0),
             RoutingOptions(decay_increment=0.0)]  # zero decay: the tie hash decides often
    # seven routing passes each, so refinement runs on the small devices only
    cases = [(random_circuit(127, 300, rng, p_two=1.0), devicelib.heavy_hex_127(), plain),
             (random_circuit(27, 300, rng), devicelib.toronto27(),
              plain + [RoutingOptions(refinement_rounds=3)]),
             (random_circuit(20, 250, rng), devicelib.grid(4, 5),
              plain + [RoutingOptions(refinement_rounds=3)])]
    h = hashlib.sha256()
    for circ, dev, option_sets in cases:
        for seed in (0, 7):
            for opts in option_sets:
                r = route.sabre_route(circ, dev, seed=seed, opts=opts)
                h.update(repr(([(g.name, g.qubits) for g in r.circuit.gates],
                               r.initial_layout.virt_to_phys, r.final_layout.virt_to_phys,
                               r.swaps_inserted)).encode())
    return h.hexdigest()


def test_routing_output_is_pinned():
    assert _routing_digest() == GOLDEN_ROUTING_DIGEST


@pytest.mark.parametrize("seed, pair", [(0, "1 and 4"), (1, "2 and 3")])
def test_infinite_extended_pair_scores_by_tie_hash(seed, pair):
    # cx 2,4 crosses components and sits in the extended set while the
    # front still routes: every candidate scores inf, the seeded hash picks
    dev = devicelib.make_device("two", 6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    c = Circuit(6).add("cx", [0, 2]).add("cx", [3, 5]).add("cx", [2, 4])
    with pytest.raises(Disconnected, match=f"^qubits {pair} lie in different coupling"):
        route.sabre_route(c, dev, seed=seed)


def test_extended_set_built_once_per_front_advance(monkeypatch):
    calls = {"ext": 0, "advance": 0}
    extended, advance = route._Router._extended_pairs, route._Router._advance

    def counted_extended(self):
        calls["ext"] += 1
        return extended(self)

    def counted_advance(self, nodes):
        calls["advance"] += 1
        return advance(self, nodes)

    monkeypatch.setattr(route._Router, "_extended_pairs", counted_extended)
    monkeypatch.setattr(route._Router, "_advance", counted_advance)
    r = route.sabre_route(random_circuit(127, 200, np.random.default_rng(3), p_two=1.0),
                          devicelib.heavy_hex_127(), seed=1)
    assert r.swaps_inserted > 2 * calls["advance"]
    assert calls["ext"] <= calls["advance"] + 1


# ---------------------------------------------------------------------------
# constrained routing (transpile with constrain_k)
# ---------------------------------------------------------------------------

def test_constrained_equals_plain_when_k_is_device(circuits, line5):
    circ = circuits["ghz_n5"]
    a = transpile(circ, line5, TranspileOptions(seed=2, constrain_k=5))
    b = transpile(circ, line5, TranspileOptions(seed=2))
    assert a.circuit.structurally_equal(b.circuit)
    assert a.initial_layout == b.initial_layout and a.final_layout == b.final_layout


def test_constrained_on_heavy_hex():
    dev = devicelib.heavy_hex_127()
    c = Circuit(3).add("h", [0]).add("cx", [0, 1]).add("cx", [1, 2])
    r = transpile(c, dev, TranspileOptions(constrain_k=3))
    assert len(r.qubits) == 3
    used = {q for g in r.circuit.gates for q in g.qubits}
    assert used <= set(r.qubits)
    _check_topology(r.circuit, dev)
    # the selected region is connected on the device
    region = set(r.qubits)
    start = next(iter(region))
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for w in dev.coupling.adjacency[v]:
            if w in region and w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == region


def test_constrained_k_too_small(circuits, line5):
    with pytest.raises(TooManyQubits):
        transpile(circuits["ghz_n5"], line5, TranspileOptions(constrain_k=4))


# ---------------------------------------------------------------------------
# prioritize_qubits
# ---------------------------------------------------------------------------

def test_prioritize_equal_counts_identity_tiebreak():
    c = Circuit(3).add("h", [0]).add("h", [1]).add("h", [2])
    p, perm = route.prioritize_qubits(c, [0, 1, 2])
    assert p.structurally_equal(c)
    assert perm == [0, 1, 2]


def test_prioritize_moves_busiest():
    c = Circuit(4)
    for _ in range(10):
        c.add("h", [3])
    c.add("h", [0]).add("h", [0])
    c.add("x", [1])
    c.measure(3, 0)
    p, perm = route.prioritize_qubits(c, [2, 1, 0, 3])
    assert perm == [1, 0, 3, 2]
    counts = [0, 0, 0, 0]
    for g in p.gates:
        counts[g.qubits[0]] += 1
    # busiest (old q3, 10 gates) -> q2; next (old q0) -> q1; old q1 -> q0; old q2 (idle) -> q3
    assert counts == [1, 2, 10, 0]
    assert p.measurements == [(2, 0)]


def test_prioritize_single_qubit_unchanged():
    c = Circuit(1).add("h", [0])
    assert route.prioritize_qubits(c, [0])[0].structurally_equal(c)


def test_prioritize_unitary_equivalence_under_permutation():
    rng = np.random.default_rng(12)
    c = random_circuit(4, 20, rng)
    order = [2, 0, 3, 1]
    p, returned = route.prioritize_qubits(c, order)
    counts = [0] * 4
    for g in c.gates:
        for q in g.qubits:
            counts[q] += 1
    ranked = sorted(range(4), key=lambda q: (-counts[q], q))
    perm = [0] * 4
    for pos, q in enumerate(ranked):
        perm[q] = order[pos]
    assert returned == perm
    u1 = oracle.circuit_unitary(c)
    u2 = oracle.circuit_unitary(p)
    pmat = oracle.permutation_matrix(perm)
    assert oracle.phase_aligned_distance(pmat @ u1 @ pmat.conj().T, u2) < 1e-9


def test_prioritize_rejects_bad_permutation():
    c = Circuit(3).add("h", [0])
    with pytest.raises(NotAPermutation):
        route.prioritize_qubits(c, [0, 1, 1])
