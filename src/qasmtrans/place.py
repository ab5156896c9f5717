"""Noise-adaptive placement: enumerate embeddings of the routed circuit's
interaction graph into the device coupling graph and select the one with the
lowest mean gate error along the circuit's critical path.

The critical path is computed once on the routed circuit with device
durations and held fixed while mappings are scored; only the per-gate error
drawn from the calibration changes with the mapping.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit, GateIR
from .device import CouplingGraph, DeviceModel
from .errors import MissingDuration, NoEmbedding
from .ir import CircuitDag
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
                         limit: int = 10000) -> list[Layout]:
    """All injective maps sending every interaction edge onto a coupling edge.

    Monomorphism semantics: extra device edges inside the image are allowed.
    Backtracking explores vertices in degree-descending order with forward
    checking; up to `limit` embeddings are collected in search order and
    returned sorted by their assignment tuple, duplicate-free.
    """
    if len(ig.vertices) > coupling.num_qubits:
        raise NoEmbedding(
            f"{len(ig.vertices)} circuit qubits exceed {coupling.num_qubits} device qubits")
    nbrs: dict[int, list[int]] = {v: [] for v in ig.vertices}
    for (a, b) in ig.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order = sorted(ig.vertices, key=lambda v: (-len(nbrs[v]), v))
    found: list[tuple] = []
    assign: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if len(found) >= limit:
            return True
        if i == len(order):
            found.append(tuple(assign[v] for v in order))
            return len(found) >= limit
        v = order[i]
        placed = [w for w in nbrs[v] if w in assign]
        if placed:
            cands = sorted(set(coupling.adjacency[assign[placed[0]]]) - used)
            cands = [p for p in cands
                     if all(coupling.has_edge(p, assign[w]) for w in placed)]
        else:
            cands = [p for p in range(coupling.num_qubits) if p not in used]
        for p in cands:
            assign[v] = p
            used.add(p)
            if backtrack(i + 1):
                del assign[v]
                used.discard(p)
                return True
            del assign[v]
            used.discard(p)
        return False

    backtrack(0)
    if not found:
        raise NoEmbedding("interaction graph does not embed into the coupling graph")
    layouts = []
    for tup in sorted(set(found)):
        v2p: list = [None] * ig.num_qubits
        for v, p in zip(order, tup):
            v2p[v] = p
        p2v: list = [None] * coupling.num_qubits
        for v, p in zip(order, tup):
            p2v[p] = v
        layouts.append(Layout(v2p, p2v))
    return layouts


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

class DurationTable:
    """Per-gate-name durations with arity fallbacks for pre-lowering circuits."""

    def __init__(self, named: dict[str, float], default_1q: float | None = None,
                 default_2q: float | None = None):
        self.named = dict(named)
        self.default_1q = default_1q
        self.default_2q = default_2q

    @classmethod
    def for_device(cls, device: DeviceModel) -> "DurationTable":
        named = dict(device.calibration.default_durations)
        ones = [v for k, v in named.items() if k not in ("cx", "cz", "ms", "zz", "iswap") and v > 0]
        twos = [v for k, v in named.items() if k in ("cx", "cz", "ms", "zz", "iswap")]
        d1 = max(ones) if ones else 35.0
        d2 = max(twos) if twos else 300.0
        return cls(named, default_1q=d1, default_2q=d2)

    def duration(self, gate: GateIR) -> float:
        if gate.is_barrier:
            return 0.0
        if gate.name in self.named:
            return self.named[gate.name]
        fallback = self.default_1q if gate.num_qubits == 1 else self.default_2q
        if fallback is None:
            raise MissingDuration(gate.name)
        return fallback


def _as_table(durations) -> DurationTable:
    if isinstance(durations, DurationTable):
        return durations
    if isinstance(durations, DeviceModel):
        return DurationTable.for_device(durations)
    if isinstance(durations, dict):
        return DurationTable(durations)
    raise MissingDuration(str(durations))


def critical_path(circuit: Circuit, durations) -> tuple[list[GateIR], float]:
    """Longest dependency chain by summed gate duration (ASAP dynamic program).

    Returns (cp_gates, latency_ns); among equal-latency paths the one
    greedily preferring earlier gate indices is chosen. Barriers participate
    as zero-duration dependencies but are omitted from the returned path.
    """
    table = _as_table(durations)
    gates_ = circuit.gates
    n = len(gates_)
    if n == 0:
        return [], 0.0
    dur = [table.duration(g) for g in gates_]
    preds = CircuitDag(circuit).preds
    end = [0.0] * n
    for i in range(n):
        end[i] = dur[i] + max((end[p] for p in preds[i]), default=0.0)
    latency = max(end)
    tol = 1e-9 * max(1.0, latency)
    tail = min(i for i in range(n) if abs(end[i] - latency) <= tol)
    path = [tail]
    node = tail
    while preds[node]:
        target = end[node] - dur[node]
        best = None
        for p in preds[node]:
            if abs(end[p] - target) <= tol:
                best = p if best is None else min(best, p)
        if best is None:
            break
        path.append(best)
        node = best
    path.reverse()
    return [gates_[i] for i in path if not gates_[i].is_barrier], float(latency)


# ---------------------------------------------------------------------------
# scoring and selection
# ---------------------------------------------------------------------------

@dataclass
class PlacementScore:
    mapping: Layout
    cp_length: int
    cp_gates: list[GateIR] = field(repr=False)
    score: float = 0.0

    def key(self):
        return (self.score, tuple(-1 if p is None else p for p in self.mapping.virt_to_phys))


def score_mapping(cp_gates: list[GateIR], mapping: Layout, device: DeviceModel) -> float:
    """Mean calibrated error over the fixed critical path under this mapping."""
    if not cp_gates:
        return 0.0
    cal = device.calibration
    v2p = mapping.virt_to_phys
    total = 0.0
    for g in cp_gates:
        if g.num_qubits == 1:
            total += cal.e1[v2p[g.qubits[0]]]
        else:
            total += cal.edge_error(v2p[g.qubits[0]], v2p[g.qubits[1]])
    return total / len(cp_gates)


def select_placement(circuit: Circuit, device: DeviceModel, limit: int = 10000,
                     durations=None) -> tuple[PlacementScore, list[PlacementScore]]:
    """Best mapping by mean critical-path error; deterministic total order
    (score, then lexicographic mapping)."""
    ig = interaction_graph(circuit)
    layouts = enumerate_embeddings(ig, device.coupling, limit=limit)
    cp_gates, _latency = critical_path(circuit, durations if durations is not None else device)
    scored = []
    for lay in layouts:
        s = PlacementScore(lay, len(cp_gates), cp_gates)
        s.score = score_mapping(cp_gates, lay, device)
        scored.append(s)
    scored.sort(key=PlacementScore.key)
    return scored[0], scored
