"""Noise-adaptive placement: enumerate embeddings of the routed circuit's
interaction graph into the device coupling graph and select the one with the
lowest mean gate error along the circuit's critical path.

The critical path (`ir.critical_path`, device durations) is computed once on
the routed circuit and held fixed while mappings are scored; only the
per-gate error drawn from the calibration changes with the mapping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateIR
from .device import CouplingGraph, DeviceModel
from .errors import NoEmbedding
from .ir import critical_path
from .route import Layout


@dataclass
class InteractionGraph:
    num_qubits: int                       # circuit qubit count
    vertices: list[int]                   # circuit qubits actually used
    edges: dict[tuple[int, int], int]     # (a < b) -> two-qubit gate count


def interaction_graph(circuit: Circuit) -> InteractionGraph:
    used: set[int] = set()
    edges: dict[tuple[int, int], int] = {}
    for g in circuit.gates:
        if g.is_barrier:
            continue
        used.update(g.qubits)
        if g.num_qubits == 2:
            a, b = g.qubits
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    for q, _c in circuit.measurements:
        used.add(q)
    return InteractionGraph(circuit.num_qubits, sorted(used), edges)


def enumerate_embeddings(ig: InteractionGraph, coupling: CouplingGraph,
                         limit: int = 10000) -> np.ndarray:
    """All injective maps sending every interaction edge onto a coupling edge.

    Monomorphism semantics: extra device edges inside the image are allowed.
    Backtracking explores vertices in degree-descending order with forward
    checking; up to `limit` (>= 1) embeddings are collected in search order.
    Returns an (n_embeddings, len(ig.vertices)) int array whose column j is
    the device qubit of ig.vertices[j], rows in ascending order.
    """
    k = len(ig.vertices)
    if k > coupling.num_qubits:
        raise NoEmbedding(f"{k} circuit qubits exceed {coupling.num_qubits} device qubits")
    nbrs: dict[int, list[int]] = {v: [] for v in ig.vertices}
    for (a, b) in ig.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order = sorted(ig.vertices, key=lambda v: (-len(nbrs[v]), v))
    depth = {v: i for i, v in enumerate(order)}
    # per search depth: one placed neighbour (-1 if none), whose device
    # neighbours are the candidates, and the other placed neighbours
    placed = [[depth[w] for w in nbrs[v] if depth[w] < i] for i, v in enumerate(order)]
    anchor = [ps[0] if ps else -1 for ps in placed]
    checks = [ps[1:] for ps in placed]
    adjacency = coupling.adjacency            # each list ascending
    adj_sets = [set(a) for a in adjacency]
    used = [False] * coupling.num_qubits
    assign = [0] * k
    found: list[tuple] = []

    def backtrack(i: int) -> bool:
        a = anchor[i]
        if a < 0:
            cands = [p for p in range(coupling.num_qubits) if not used[p]]
        elif checks[i]:
            others = [adj_sets[assign[j]] for j in checks[i]]
            cands = [p for p in adjacency[assign[a]]
                     if not used[p] and all(p in s for s in others)]
        else:
            cands = [p for p in adjacency[assign[a]] if not used[p]]
        if i == k - 1:
            prefix = tuple(assign[:i])
            found.extend(prefix + (p,) for p in cands[:limit - len(found)])
            return len(found) >= limit
        for p in cands:
            assign[i] = p
            used[p] = True
            stop = backtrack(i + 1)
            used[p] = False
            if stop:
                return True
        return False

    if k:
        backtrack(0)
    else:
        found.append(())
    # the recursive closure refers to itself; unbinding it lets reference
    # counting free the search state at once, with the cyclic collector paused
    del backtrack
    if not found:
        raise NoEmbedding("interaction graph does not embed into the coupling graph")
    emb = np.array(found, dtype=np.intp).reshape(len(found), k)[:, [depth[v] for v in ig.vertices]]
    return emb[np.lexsort(emb.T[::-1])] if k else emb


# ---------------------------------------------------------------------------
# scoring and selection
# ---------------------------------------------------------------------------

TOP_K = 5       # placements reported in the CLI summary


@dataclass
class PlacementScore:
    mapping: Layout
    cp_length: int
    score: float


def score_embeddings(cp_gates: list[GateIR], ig: InteractionGraph, emb: np.ndarray,
                     device: DeviceModel) -> np.ndarray:
    """Mean calibrated error over the fixed critical path, one per row of `emb`
    (an `enumerate_embeddings` array). Errors are added gate by gate in path
    order, as a per-mapping Python loop would add them."""
    if not cp_gates:
        return np.zeros(len(emb))
    cal = device.calibration
    e1 = np.asarray(cal.e1, dtype=float)
    e2 = np.full((device.num_qubits, device.num_qubits), np.nan)
    for a, b in device.coupling.edges:
        e2[a, b] = e2[b, a] = cal.edge_error(a, b)
    col = {v: emb[:, j] for j, v in enumerate(ig.vertices)}
    total = np.zeros(len(emb))
    for g in cp_gates:
        if len(g.qubits) == 1:
            total += e1[col[g.qubits[0]]]
        else:
            total += e2[col[g.qubits[0]], col[g.qubits[1]]]
    return total / len(cp_gates)


def select_placement(circuit: Circuit, device: DeviceModel,
                     limit: int = 10000) -> tuple[PlacementScore, list[PlacementScore]]:
    """Best mapping by mean critical-path error, and the TOP_K best, best
    first; deterministic total order (score, then lexicographic mapping)."""
    ig = interaction_graph(circuit)
    emb = enumerate_embeddings(ig, device.coupling, limit=limit)
    cp_gates, _latency = critical_path(circuit, device)
    scores = score_embeddings(cp_gates, ig, emb, device)
    top = []
    for r in np.lexsort((*emb.T[::-1], scores))[:TOP_K]:
        v2p: list = [None] * ig.num_qubits
        for v, p in zip(ig.vertices, emb[r].tolist()):
            v2p[v] = p
        top.append(PlacementScore(Layout(v2p), len(cp_gates), float(scores[r])))
    return top[0], top
