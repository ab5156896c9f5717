"""Circuit-level analyses: the one gate dependency DAG (with its incremental
front list; the router and the critical path both build it), 3-qubit gate
decomposition, and circuit statistics.

Statistics conventions (documented because the literature leaves them open):
  * measurements count as one-qubit operations, in both the gate counts and
    the depth layering (each measurement occupies a layer slot on its qubit);
  * a barrier occupies one full layer of its own across its qubits and is
    never counted as a gate;
  * depth is ASAP layering: each op lands at 1 + max(layer of its inputs).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import gates
from .circuit import BARRIER, Circuit, GateIR
from .errors import NotInFront, UnsupportedGate


class CircuitDag:
    """Gate dependency DAG with an incrementally maintained front list.

    preds[i] are the gates node i waits on (the last earlier gate on each of
    its qubits) and succ[i] the gates waiting on i. front holds unexecuted
    nodes whose predecessors have all executed. advance_front touches only
    executed nodes and their newly-enabled successors, never the whole node
    set.
    """

    def __init__(self, circuit: Circuit):
        n = len(circuit.gates)
        self.circuit = circuit
        self.num_nodes = n
        self.preds: list[tuple] = [()] * n
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.pred_remaining: list[int] = [0] * n
        self.executed: list[bool] = [False] * n
        self.executed_count = 0
        preds, succ, rem = self.preds, self.succ, self.pred_remaining
        last: dict[int, int] = {}
        for i, g in enumerate(circuit.gates):
            qs = g.qubits
            if len(qs) == 1:
                q = qs[0]
                p = last.get(q)
                if p is not None:
                    preds[i] = (p,)
                    rem[i] = 1
                    succ[p].append(i)
                last[q] = i
                continue
            ps = {last[q] for q in qs if q in last}
            preds[i] = tuple(ps)
            rem[i] = len(ps)
            for p in ps:
                succ[p].append(i)
            for q in qs:
                last[q] = i
        self.front: set[int] = {i for i in range(n) if not self.pred_remaining[i]}

    @property
    def future(self) -> set[int]:
        """Nodes neither executed nor in the front."""
        return {i for i in range(self.num_nodes)
                if not self.executed[i] and i not in self.front}

    def advance_front(self, executed) -> "CircuitDag":
        """Mark front nodes as executed and pull newly-enabled successors in.

        Cost is proportional to len(executed) plus the number of enabled
        successors, never to the total gate count."""
        front = self.front
        for node in executed:
            if node not in front:
                raise NotInFront(node)
        rem = self.pred_remaining
        for node in executed:
            front.discard(node)
            self.executed[node] = True
            for s in self.succ[node]:
                rem[s] -= 1
                if rem[s] == 0:
                    front.add(s)
        self.executed_count += len(executed)
        return self

    def done(self) -> bool:
        return self.executed_count == self.num_nodes


def build_dag(circuit: Circuit) -> CircuitDag:
    return CircuitDag(circuit)


def topological_order(dag: CircuitDag) -> list[int]:
    """Drain the DAG through advance_front; returns nodes in executed order."""
    order: list[int] = []
    while dag.front:
        batch = sorted(dag.front)
        order.extend(batch)
        dag.advance_front(batch)
    return order


# ---------------------------------------------------------------------------
# 3-qubit gate decomposition
# ---------------------------------------------------------------------------

_DECOMPOSABLE = frozenset(["ccx", "cswap", "rccx", "rc3x", "c3x", "c3sqrtx"])


def decompose_3q(circuit: Circuit) -> Circuit:
    """Rewrite every gate on 3+ qubits into 1- and 2-qubit gates.

    A lone ccx becomes the textbook 6 CX + 9 one-qubit sequence; the other
    multi-controlled gates expand through their standard definitions and
    then recursively. Barriers and measurements pass through unchanged.
    """
    if all(len(g.qubits) <= 2 or g.name == BARRIER for g in circuit.gates):
        return circuit
    out: list[GateIR] = []
    for g in circuit.gates:
        if len(g.qubits) <= 2 or g.name == BARRIER:
            out.append(g)
            continue
        if g.name not in _DECOMPOSABLE:
            raise UnsupportedGate(g.name)
        _expand_to_2q(g.name, g.params, g.qubits, out)
    return Circuit(circuit.num_qubits, out, list(circuit.measurements),
                   circuit.register_map, circuit.source_name)


def _expand_to_2q(name: str, params: tuple, qubits: tuple, out: list):
    for child, cparams, cqubits in gates.expand(name, params, qubits):
        if len(cqubits) <= 2:
            out.append(GateIR(child, cqubits, cparams))
        else:
            _expand_to_2q(child, cparams, cqubits, out)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass
class CircuitStats:
    depth: int
    gate_density: float
    retention_lifespan: int
    measurement_density: float
    entanglement_variance: float
    one_qubit_gates: int
    two_qubit_gates: int
    total_gates: int
    latency_ns: float | None = None

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "gate_density": self.gate_density,
            "retention_lifespan": self.retention_lifespan,
            "measurement_density": self.measurement_density,
            "entanglement_variance": self.entanglement_variance,
            "gates_1q": self.one_qubit_gates,
            "gates_2q": self.two_qubit_gates,
            "gates_total": self.total_gates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self.to_dict().items())


def stats(circuit: Circuit, device_basis_durations: dict | None = None) -> CircuitStats:
    """Five circuit metrics over the ASAP layering (see module docstring).

    With device_basis_durations (gate name -> ns) the duration-weighted
    schedule span is additionally reported as latency_ns.
    """
    n = circuit.num_qubits
    lvl = [0] * n
    first = [0] * n
    ready = [0.0] * n
    ent = [0] * n
    n1 = n2 = total = 0
    meas_layers: list[int] = []
    durations = device_basis_durations
    for g in circuit.gates:
        qs = g.qubits
        if len(qs) == 1 and g.name != BARRIER:
            # the general branch below, with max() over one qubit taken out
            q = qs[0]
            layer = lvl[q] + 1
            if first[q] == 0:
                first[q] = layer
            lvl[q] = layer
            total += 1
            n1 += 1
            if durations is not None:
                ready[q] += durations.get(g.name, 0.0)
            continue
        if g.name == BARRIER:
            layer = 1 + max((lvl[q] for q in qs), default=0)
            for q in qs:
                lvl[q] = layer
            continue
        layer = 1 + max(lvl[q] for q in qs)
        for q in qs:
            if first[q] == 0:
                first[q] = layer
            lvl[q] = layer
        total += 1
        if len(qs) == 2:
            n2 += 1
            for q in qs:
                ent[q] += 1
        if durations is not None:
            dur = durations.get(g.name, 0.0)
            t = dur + max(ready[q] for q in qs)
            for q in qs:
                ready[q] = t
    for q, _c in circuit.measurements:
        layer = lvl[q] + 1
        lvl[q] = layer
        if first[q] == 0:
            first[q] = layer
        meas_layers.append(layer)
        n1 += 1
        total += 1
    depth = max(lvl, default=0)
    density = total / (depth * n) if depth else 0.0
    lifespan = max((lvl[q] - first[q] + 1 for q in range(n) if first[q]), default=0)
    mdensity = sum(meas_layers) / (depth * len(meas_layers)) if meas_layers else 0.0
    mean = sum(ent) / n if n else 0.0
    variance = sum((e - mean) ** 2 for e in ent) / n if n else 0.0
    return CircuitStats(
        depth=depth,
        gate_density=density,
        retention_lifespan=lifespan,
        measurement_density=mdensity,
        entanglement_variance=variance,
        one_qubit_gates=n1,
        two_qubit_gates=n2,
        total_gates=total,
        latency_ns=max(ready) if device_basis_durations is not None and circuit.gates else None,
    )
