"""Noise-adaptive placement tests: interaction graphs, embedding enumeration,
critical paths, and mapping selection."""
import gc
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qasmtrans import cli, devicelib, ir, place, qasm, route
from qasmtrans.circuit import Circuit
from qasmtrans.errors import MissingDuration, NoEmbedding
from qasmtrans.ir import DurationTable
from qasmtrans.transpile import gc_paused

from conftest import random_circuit


# ---------------------------------------------------------------------------
# interaction graph
# ---------------------------------------------------------------------------

def test_interaction_graph_weights():
    c = Circuit(2).add("cx", [0, 1]).add("cx", [0, 1])
    ig = place.interaction_graph(c)
    assert ig.edges == {(0, 1): 2}


def test_interaction_graph_1q_only():
    c = Circuit(3).add("h", [0]).add("h", [2])
    ig = place.interaction_graph(c)
    assert ig.vertices == [0, 2]
    assert ig.edges == {}


def test_interaction_graph_ghz_path():
    c = Circuit(3).add("h", [0]).add("cx", [0, 1]).add("cx", [1, 2])
    ig = place.interaction_graph(c)
    assert sorted(ig.edges) == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# embedding enumeration
# ---------------------------------------------------------------------------

def test_path3_into_line3_two_embeddings(line5):
    ig = place.InteractionGraph(3, [0, 1, 2], {(0, 1): 1, (1, 2): 1})
    dev = devicelib.line(3)
    emb = place.enumerate_embeddings(ig, dev.coupling)
    assert emb.tolist() == [[0, 1, 2], [2, 1, 0]]


def test_single_vertex_gets_all_device_qubits():
    ig = place.InteractionGraph(1, [0], {})
    emb = place.enumerate_embeddings(ig, devicelib.line(6).coupling)
    assert emb.tolist() == [[p] for p in range(6)]


def test_triangle_into_tree_no_embedding():
    ig = place.InteractionGraph(3, [0, 1, 2], {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    with pytest.raises(NoEmbedding):
        place.enumerate_embeddings(ig, devicelib.line(6).coupling)


def _brute_force_embeddings(ig, coupling):
    out = []
    for perm in itertools.permutations(range(coupling.num_qubits), len(ig.vertices)):
        m = dict(zip(ig.vertices, perm))
        if all(coupling.has_edge(m[a], m[b]) for a, b in ig.edges):
            out.append(tuple(m[v] for v in ig.vertices))
    return sorted(out)


def test_embeddings_match_brute_force():
    rng = np.random.default_rng(3)
    devices = [devicelib.line(7), devicelib.ring(8), devicelib.grid(3, 4),
               devicelib.toronto27()]
    for trial in range(12):
        nv = int(rng.integers(2, 6))
        c = random_circuit(nv, 12, rng, p_two=0.7)
        ig = place.interaction_graph(c)
        dev = devices[trial % 3]
        if dev.num_qubits > 12:
            continue
        try:
            emb = place.enumerate_embeddings(ig, dev.coupling, limit=100000)
            got = [tuple(row) for row in emb.tolist()]
        except NoEmbedding:
            got = []
        assert got == _brute_force_embeddings(ig, dev.coupling)


def test_embeddings_respect_limit_and_order():
    ig = place.InteractionGraph(1, [0], {})
    emb = place.enumerate_embeddings(ig, devicelib.line(9).coupling, limit=4)
    assert emb.tolist() == [[0], [1], [2], [3]]
    # path 0-1-2 on line5: the middle vertex is placed first, so the first
    # three in search order are (v1, v0, v2) = (1,0,2), (1,2,0), (2,1,3);
    # the rows hold them by circuit qubit, ascending
    ig = place.InteractionGraph(3, [0, 1, 2], {(0, 1): 1, (1, 2): 1})
    emb = place.enumerate_embeddings(ig, devicelib.line(5).coupling, limit=3)
    assert emb.tolist() == [[0, 1, 2], [1, 2, 3], [2, 1, 0]]


def test_enumeration_leaves_no_cyclic_garbage():
    # compiles run with the cyclic collector paused, so the search state
    # must be freed by reference counting alone
    ig = place.InteractionGraph(3, [0, 1, 2], {(0, 1): 1, (1, 2): 1})
    coupling = devicelib.heavy_hex_127().coupling
    gc.collect()
    with gc_paused():
        assert len(place.enumerate_embeddings(ig, coupling)) > 100
        assert gc.collect() == 0


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

def test_critical_path_serial_chain():
    c = Circuit(1).add("h", [0]).add("x", [0]).add("h", [0])
    cp, lat = place.critical_path(c, {"h": 10.0, "x": 40.0})
    assert lat == 60.0
    assert [g.name for g in cp] == ["h", "x", "h"]


def test_critical_path_parallel_feeding_cx():
    c = Circuit(2).add("h", [0]).add("h", [1]).add("cx", [0, 1])
    cp, lat = place.critical_path(c, {"h": 10.0, "cx": 40.0})
    assert lat == 50.0
    assert len(cp) == 2


def test_critical_path_qec_matches_exhaustive(circuits):
    qec = circuits["qec_n5"]
    table = DurationTable({"cx": 300.0}, default_1q=35.0, default_2q=300.0)
    cp, lat = place.critical_path(qec, table)
    best = _exhaustive_longest_path(qec, table)
    assert lat == pytest.approx(best)
    assert sum(table.duration(g) for g in cp) == pytest.approx(lat)


def _exhaustive_longest_path(circ, table):
    n = len(circ.gates)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    last = {}
    for i, g in enumerate(circ.gates):
        for p in {last[q] for q in g.qubits if q in last}:
            succ[p].append(i)
            indeg[i] += 1
        for q in g.qubits:
            last[q] = i
    best = 0.0

    def dfs(i, acc):
        nonlocal best
        acc += table.duration(circ.gates[i])
        if not succ[i]:
            best = max(best, acc)
        for s in succ[i]:
            dfs(s, acc)

    for i in range(n):
        if indeg[i] == 0:
            dfs(i, 0.0)
    return best


def test_critical_path_deterministic_tiebreak():
    c = Circuit(2).add("h", [0]).add("h", [1])
    cp, lat = place.critical_path(c, {"h": 10.0})
    assert lat == 10.0
    assert cp[0].qubits == (0,)  # earlier gate index wins the tie


def test_missing_duration_raises():
    c = Circuit(1).add("h", [0])
    with pytest.raises(MissingDuration):
        place.critical_path(c, DurationTable({}))


# ---------------------------------------------------------------------------
# placement selection
# ---------------------------------------------------------------------------

def _ghz3():
    return Circuit(3).add("h", [0]).add("cx", [0, 1]).add("cx", [1, 2])


def test_uniform_errors_all_scores_equal():
    dev = devicelib.line(4, e1=0.01, e2=0.01)
    best, top = place.select_placement(_ghz3(), dev)
    ig = place.interaction_graph(_ghz3())
    emb = place.enumerate_embeddings(ig, dev.coupling)
    cp, _ = place.critical_path(_ghz3(), dev)
    assert all(s == pytest.approx(0.01) for s in place.score_embeddings(cp, ig, emb, dev))
    assert [s.mapping.virt_to_phys for s in top] == emb[:5].tolist()


def test_placement_avoids_bad_edge_when_alternative_exists():
    dev = devicelib.line(5, e1=0.001)
    for key in dev.calibration.e2:
        dev.calibration.e2[key] = 0.01
    dev.calibration.e2[(1, 2)] = 0.1
    best, _ = place.select_placement(_ghz3(), dev)
    v2p = best.mapping.virt_to_phys
    used_edges = {tuple(sorted((v2p[0], v2p[1]))), tuple(sorted((v2p[1], v2p[2])))}
    assert (1, 2) not in used_edges


def test_single_qubit_circuit_takes_min_e1():
    dev = devicelib.line(5, e1=0.01)
    dev.calibration.e1 = [0.05, 0.01, 0.002, 0.03, 0.04]
    c = Circuit(1).add("h", [0]).add("x", [0])
    best, _ = place.select_placement(c, dev)
    assert best.mapping.virt_to_phys[0] == 2


def test_scores_match_independent_recompute(toronto):
    from qasmtrans import route
    rng = np.random.default_rng(8)
    c = route.sabre_route(random_circuit(4, 15, rng, p_two=0.6), toronto).circuit
    ig = place.interaction_graph(c)
    emb = place.enumerate_embeddings(ig, toronto.coupling, limit=200)
    cp, _ = place.critical_path(c, toronto)
    scores = place.score_embeddings(cp, ig, emb, toronto)
    assert len(scores) == len(emb)
    for row, score in zip(emb.tolist(), scores.tolist()):
        assert score == _loop_score(cp, dict(zip(ig.vertices, row)), toronto)


def _loop_score(cp_gates, m, dev):
    """Mean critical-path error of one mapping, added gate by gate."""
    cal = dev.calibration
    total = 0.0
    for g in cp_gates:
        if g.num_qubits == 1:
            total += cal.e1[m[g.qubits[0]]]
        else:
            total += cal.edge_error(m[g.qubits[0]], m[g.qubits[1]])
    return total / len(cp_gates)


def test_argmin_invariant_under_uniform_scaling():
    from qasmtrans import route
    dev = devicelib.toronto27(jitter_seed=5)
    rng = np.random.default_rng(2)
    c = route.sabre_route(random_circuit(4, 12, rng, p_two=0.6), dev).circuit
    best1, scored1 = place.select_placement(c, dev, limit=500)
    for q in range(dev.num_qubits):
        dev.calibration.e1[q] *= 3.0
    for k in dev.calibration.e2:
        dev.calibration.e2[k] *= 3.0
    best2, scored2 = place.select_placement(c, dev, limit=500)
    assert best1.mapping.virt_to_phys == best2.mapping.virt_to_phys
    assert best2.score == pytest.approx(3.0 * best1.score)


def test_select_placement_result_independent_of_enumeration_order(toronto, monkeypatch):
    rng = np.random.default_rng(4)
    c = random_circuit(3, 10, rng, p_two=0.7)
    best, top = place.select_placement(c, toronto, limit=5000)
    # reference: every embedding scored one by one, in one Python sort
    ig = place.interaction_graph(c)
    emb = place.enumerate_embeddings(ig, toronto.coupling, limit=5000)
    cp, _ = place.critical_path(c, toronto)
    ranked = sorted((_loop_score(cp, dict(zip(ig.vertices, row)), toronto), row)
                    for row in emb.tolist())
    got = [(s.score, [p for p in s.mapping.virt_to_phys if p is not None]) for s in top]
    assert got == ranked[:5]
    assert best is top[0]
    # the same ranking when the rows arrive in another order
    shuffled = emb[np.random.default_rng(0).permutation(len(emb))]
    monkeypatch.setattr(place, "enumerate_embeddings", lambda *a, **k: shuffled)
    _, top2 = place.select_placement(c, toronto, limit=5000)
    assert [(s.score, s.mapping.virt_to_phys) for s in top2] == \
        [(s.score, s.mapping.virt_to_phys) for s in top]


# ---------------------------------------------------------------------------
# pinned end-to-end output
# ---------------------------------------------------------------------------

GOLDEN_PLACEMENT_DIGEST = "2984985c1b5685537dee51d917d9183d035eb1b5c694263e6c3a220da766908e"


def _placement_digest(tmp_path) -> str:
    """SHA-256 over `--noise-adaptive` CLI compiles: the emitted program, the
    placement score, the top-5 placements block and both layouts."""
    devices = {
        "toronto": devicelib.toronto27(jitter_seed=5),
        "hh127": devicelib.heavy_hex_127(jitter_seed=7),
        "uniform": devicelib.toronto27(),   # every score ties; mapping order decides
    }
    paths = {}
    for name, dev in devices.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dev.to_json())
    rng = np.random.default_rng(21)
    jobs = [("toronto", 4, None), ("toronto", 5, None), ("toronto", 6, None),
            ("hh127", 5, None), ("hh127", 8, None),
            ("toronto", 5, 12),          # the search is cut off at 12 embeddings
            ("uniform", 5, None)]
    h = hashlib.sha256()
    for i, (name, nq, limit) in enumerate(jobs):
        circ = random_circuit(nq, 30, rng, p_two=0.5, measure=True)
        src = tmp_path / f"in{i}.qasm"
        src.write_text(qasm.emit_qasm(circ))
        out = tmp_path / f"out{i}.qasm"
        flags = [] if limit is None else ["--placement-limit", str(limit)]
        assert cli.main(["-i", str(src), "-d", str(paths[name]), "-o", str(out),
                         "--noise-adaptive", "--seed", "2"] + flags) == 0
        if limit is not None:
            routed = route.sabre_route(ir.decompose_3q(qasm.parse_file(src)),
                                       devices[name], seed=2).circuit
            ig = place.interaction_graph(routed)
            assert len(place.enumerate_embeddings(ig, devices[name].coupling,
                                                  limit=limit)) == limit
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        h.update(out.read_bytes())
        h.update(json.dumps([summary[k] for k in ("placement_score", "placements",
                                                  "initial_layout", "final_layout")]).encode())
    return h.hexdigest()


def test_noise_adaptive_output_is_pinned(tmp_path):
    assert _placement_digest(tmp_path) == GOLDEN_PLACEMENT_DIGEST
