"""Device description: coupling graph, calibration data, all-pairs distances,
and connected partial-graph extraction.

Device JSON schema (version "qasmtrans-device/1"):

    {
      "version": "qasmtrans-device/1",
      "name": str,
      "num_qubits": int,
      "edges": [[a, b], ...],
      "basis": "ibmq" | "rigetti" | "ionq" | "quantinuum" | "rigetti_pulse",
      "qubits": [{"t1_us","t2_us","readout_error","e1","gate_durations":{...}}],
      "edges_cal": [{"pair":[a,b], "e2", "duration_ns"}],
      "gate_durations": {name: ns}        # optional device-wide defaults
    }
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import deque

from .errors import Infeasible, SchemaError

INF = math.inf


class CouplingGraph:
    """Undirected device topology with a precomputed hop-count matrix.

    distance_matrix is a list of per-vertex lists; disconnected pairs hold
    the +inf sentinel. Computed by BFS from every vertex.
    """

    def __init__(self, num_qubits: int, edges):
        self.num_qubits = num_qubits
        self.edges: set[tuple[int, int]] = set()
        self.adjacency: list[list[int]] = [[] for _ in range(num_qubits)]
        for a, b in edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
                raise SchemaError("edges", f"bad edge ({a},{b})")
            key = (min(a, b), max(a, b))
            if key in self.edges:
                continue
            self.edges.add(key)
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)
        for nbrs in self.adjacency:
            nbrs.sort()
        self.distance_matrix = [self._bfs(v) for v in range(num_qubits)]

    def _bfs(self, start: int) -> list[float]:
        dist = [INF] * self.num_qubits
        dist[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            for w in self.adjacency[v]:
                if dist[w] > dist[v] + 1:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def is_connected(self) -> bool:
        if self.num_qubits == 0:
            return True
        return all(not math.isinf(d) for d in self.distance_matrix[0])

    def distances_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in self.distance_matrix:
            w.writerow(["inf" if math.isinf(d) else int(d) for d in row])
        return buf.getvalue()


class CalibrationData:
    """Per-qubit and per-edge calibration plus per-gate durations."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.t1_us = [0.0] * num_qubits
        self.t2_us = [0.0] * num_qubits
        self.readout_error = [0.0] * num_qubits
        self.e1 = [0.0] * num_qubits
        self.gate_durations: list[dict[str, float]] = [dict() for _ in range(num_qubits)]
        self.e2: dict[tuple[int, int], float] = {}
        self.edge_duration_ns: dict[tuple[int, int], float] = {}
        self.default_durations: dict[str, float] = {}

    @staticmethod
    def _ekey(a: int, b: int) -> tuple[int, int]:
        return (min(a, b), max(a, b))

    def edge_error(self, a: int, b: int) -> float:
        return self.e2[self._ekey(a, b)]

    def validate(self, coupling: CouplingGraph):
        for q in range(self.num_qubits):
            if not 0 <= self.e1[q] <= 1:
                raise SchemaError(f"qubits[{q}].e1", "error out of [0,1]")
            if not 0 <= self.readout_error[q] <= 1:
                raise SchemaError(f"qubits[{q}].readout_error", "error out of [0,1]")
            if self.t1_us[q] <= 0 or self.t2_us[q] <= 0:
                raise SchemaError(f"qubits[{q}].t1_us", "coherence times must be > 0")
            if self.t2_us[q] > 2 * self.t1_us[q] + 1e-12:
                raise SchemaError(f"qubits[{q}].t2_us", "t2 exceeds 2*t1")
        for key in coupling.edges:
            if key not in self.e2:
                raise SchemaError(f"edges_cal[{key}]", "missing e2")
            if not 0 <= self.e2[key] <= 1:
                raise SchemaError(f"edges_cal[{key}].e2", "error out of [0,1]")


class DeviceModel:
    """Immutable after load: coupling + calibration + basis selection."""

    def __init__(self, name: str, coupling: CouplingGraph, calibration: CalibrationData,
                 basis="ibmq", parent_qubits=None):
        self.name = name
        self.coupling = coupling
        self.calibration = calibration
        self.basis = basis
        # for restricted devices: index -> qubit id on the parent device
        self.parent_qubits = list(parent_qubits) if parent_qubits is not None else None
        self.warnings: list[str] = []

    @property
    def num_qubits(self) -> int:
        return self.coupling.num_qubits

    def to_json_dict(self) -> dict:
        qubits = []
        for q in range(self.num_qubits):
            qubits.append({
                "t1_us": self.calibration.t1_us[q],
                "t2_us": self.calibration.t2_us[q],
                "readout_error": self.calibration.readout_error[q],
                "e1": self.calibration.e1[q],
                "gate_durations": dict(self.calibration.gate_durations[q]),
            })
        edges_cal = []
        for a, b in sorted(self.coupling.edges):
            edges_cal.append({
                "pair": [a, b],
                "e2": self.calibration.e2[(a, b)],
                "duration_ns": self.calibration.edge_duration_ns.get((a, b), 0.0),
            })
        return {
            "version": "qasmtrans-device/1",
            "name": self.name,
            "num_qubits": self.num_qubits,
            "edges": [list(e) for e in sorted(self.coupling.edges)],
            "basis": self.basis,
            "qubits": qubits,
            "edges_cal": edges_cal,
            "gate_durations": dict(self.calibration.default_durations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _require(data: dict, field: str):
    if field not in data:
        raise SchemaError(field, "missing")
    return data[field]


def load_device(source) -> DeviceModel:
    """Build a DeviceModel from a JSON path, JSON text, or a parsed dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if "\n" not in text and not text.lstrip().startswith("{"):
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.loads(text)
    name = data.get("name", "device")
    n = _require(data, "num_qubits")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("num_qubits", "must be a positive integer")
    coupling = CouplingGraph(n, _require(data, "edges"))
    cal = CalibrationData(n)
    qubits = _require(data, "qubits")
    if len(qubits) != n:
        raise SchemaError("qubits", f"expected {n} entries, got {len(qubits)}")
    for q, entry in enumerate(qubits):
        for field in ("t1_us", "t2_us", "readout_error", "e1"):
            if field not in entry:
                raise SchemaError(f"qubits[{q}].{field}", "missing")
        cal.t1_us[q] = float(entry["t1_us"])
        cal.t2_us[q] = float(entry["t2_us"])
        cal.readout_error[q] = float(entry["readout_error"])
        cal.e1[q] = float(entry["e1"])
        cal.gate_durations[q] = {k: float(v) for k, v in entry.get("gate_durations", {}).items()}
    for i, entry in enumerate(data.get("edges_cal", [])):
        if "pair" not in entry or "e2" not in entry:
            raise SchemaError(f"edges_cal[{i}]", "needs pair and e2")
        a, b = entry["pair"]
        key = CalibrationData._ekey(a, b)
        cal.e2[key] = float(entry["e2"])
        if entry.get("duration_ns") is not None:
            if float(entry["duration_ns"]) <= 0:
                raise SchemaError(f"edges_cal[{i}].duration_ns", "must be > 0")
            cal.edge_duration_ns[key] = float(entry["duration_ns"])
    cal.default_durations = {k: float(v) for k, v in data.get("gate_durations", {}).items()}
    cal.validate(coupling)
    dev = DeviceModel(name, coupling, cal, data.get("basis", "ibmq"))
    if not coupling.is_connected():
        dev.warnings.append("DisconnectedWarning: coupling graph has more than one component")
    return dev


def partial_graph(device: DeviceModel, k: int, anchor: int | None = None) -> DeviceModel:
    """Connected induced subgraph of exactly k qubits, greedily grown.

    Expansion starts from the anchor (default: the lowest-penalty qubit) and
    repeatedly claims the frontier vertex with the most edges into the
    selected set, ties broken by lower index. Deterministic for a fixed
    device and k.
    """
    n = device.num_qubits
    if not 1 <= k <= n:
        raise Infeasible(f"k={k} out of range for {n}-qubit device")
    if anchor is None:
        from .partition import penalty
        anchor = min(range(n), key=lambda q: (penalty(q, device), q))
    selected = {anchor}
    adj = device.coupling.adjacency
    while len(selected) < k:
        frontier = sorted({w for v in selected for w in adj[v]} - selected)
        if not frontier:
            raise Infeasible("no connected induced subgraph of requested size")
        best = max(frontier, key=lambda w: (sum(1 for x in adj[w] if x in selected), -w))
        selected.add(best)
    return restrict_device(device, sorted(selected))


def restrict_device(device: DeviceModel, qubit_ids: list[int]) -> DeviceModel:
    """Induced-subgraph DeviceModel; index i maps to parent qubit qubit_ids[i]."""
    index_of = {q: i for i, q in enumerate(qubit_ids)}
    edges = [(index_of[a], index_of[b]) for a, b in device.coupling.edges
             if a in index_of and b in index_of]
    coupling = CouplingGraph(len(qubit_ids), edges)
    cal = CalibrationData(len(qubit_ids))
    src = device.calibration
    for i, q in enumerate(qubit_ids):
        cal.t1_us[i] = src.t1_us[q]
        cal.t2_us[i] = src.t2_us[q]
        cal.readout_error[i] = src.readout_error[q]
        cal.e1[i] = src.e1[q]
        cal.gate_durations[i] = dict(src.gate_durations[q])
    for (a, b) in coupling.edges:
        key = CalibrationData._ekey(qubit_ids[a], qubit_ids[b])
        if key in src.e2:
            cal.e2[(a, b)] = src.e2[key]
        if key in src.edge_duration_ns:
            cal.edge_duration_ns[(a, b)] = src.edge_duration_ns[key]
    cal.default_durations = dict(src.default_durations)
    parent = device.parent_qubits
    ids = [parent[q] for q in qubit_ids] if parent is not None else list(qubit_ids)
    return DeviceModel(f"{device.name}[{len(qubit_ids)}]", coupling, cal, device.basis, ids)
