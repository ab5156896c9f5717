"""Built-in device topologies and calibration synthesis for tests and demos."""
from __future__ import annotations

import numpy as np

from .device import CalibrationData, CouplingGraph, DeviceModel
from .lowering import ENTANGLERS

# per-vendor default gate durations in ns (virtual-Z gates cost nothing)
DEFAULT_DURATIONS = {
    "ibmq": {"rz": 0.0, "id": 35.0, "sx": 35.0, "x": 35.0, "cx": 300.0},
    "rigetti": {"rz": 0.0, "rx": 40.0, "cz": 180.0},
    "ionq": {"gz": 0.0, "gpi": 10000.0, "gpi2": 10000.0, "ms": 200000.0},
    "quantinuum": {"rz": 0.0, "rx": 10000.0, "zz": 100000.0},
    # pulse-lane basis for iSWAP-native superconducting chips
    "rigetti_pulse": {"rz": 0.0, "rx": 10.0, "iswap": 40.0},
}

# 27-qubit heavy-hex coupling in the IBM Falcon arrangement (Toronto-style)
TORONTO_EDGES = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
    (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22),
    (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]


def line_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def ring_edges(n: int) -> list[tuple[int, int]]:
    return line_edges(n) + ([(n - 1, 0)] if n > 2 else [])


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def heavy_hex_127_edges() -> list[tuple[int, int]]:
    """127-qubit heavy-hex style lattice: 7 rows of 13 plus 36 bridge qubits."""
    edges = []
    rows, cols = 7, 13
    def rc(r, c):
        return r * cols + c
    for r in range(rows):
        for c in range(cols - 1):
            edges.append((rc(r, c), rc(r, c + 1)))
    bridge = rows * cols
    for gap in range(rows - 1):
        columns = range(0, cols - 1, 2) if gap % 2 == 0 else range(1, cols, 2)
        for c in columns:
            edges.append((rc(gap, c), bridge))
            edges.append((bridge, rc(gap + 1, c)))
            bridge += 1
    assert bridge == 127
    return edges


def make_device(name: str, num_qubits: int, edges, basis: str = "ibmq",
                e1: float = 0.001, e2: float = 0.01, t1_us: float = 100.0,
                t2_us: float = 80.0, readout_error: float = 0.02,
                durations: dict | None = None, two_qubit_duration_ns: float | None = None,
                jitter_seed: int | None = None) -> DeviceModel:
    """Assemble a DeviceModel with uniform or seed-jittered calibration."""
    coupling = CouplingGraph(num_qubits, edges)
    cal = CalibrationData(num_qubits)
    rng = np.random.default_rng(jitter_seed) if jitter_seed is not None else None

    def jitter(x, spread=0.5):
        if rng is None or x == 0:
            return x
        return float(x * (1.0 + spread * (rng.random() - 0.5)))

    for q in range(num_qubits):
        cal.t1_us[q] = jitter(t1_us, 0.4)
        cal.t2_us[q] = min(jitter(t2_us, 0.4), 2 * cal.t1_us[q])
        cal.readout_error[q] = jitter(readout_error)
        cal.e1[q] = jitter(e1)
    dur = dict(DEFAULT_DURATIONS.get(basis, DEFAULT_DURATIONS["ibmq"]))
    if durations:
        dur.update(durations)
    cal.default_durations = dur
    two_q = two_qubit_duration_ns
    if two_q is None:
        two_q = max((v for k, v in dur.items() if k in ENTANGLERS), default=300.0)
    for key in coupling.edges:
        cal.e2[key] = jitter(e2)
        cal.edge_duration_ns[key] = two_q
    return DeviceModel(name, coupling, cal, basis)


def line(n: int, basis: str = "ibmq", **kw) -> DeviceModel:
    return make_device(f"line{n}", n, line_edges(n), basis, **kw)


def ring(n: int, basis: str = "ibmq", **kw) -> DeviceModel:
    return make_device(f"ring{n}", n, ring_edges(n), basis, **kw)


def grid(rows: int, cols: int, basis: str = "ibmq", **kw) -> DeviceModel:
    return make_device(f"grid{rows}x{cols}", rows * cols, grid_edges(rows, cols), basis, **kw)


def complete(n: int, basis: str = "ibmq", **kw) -> DeviceModel:
    return make_device(f"complete{n}", n, complete_edges(n), basis, **kw)


def toronto27(basis: str = "ibmq", **kw) -> DeviceModel:
    return make_device("toronto27", 27, TORONTO_EDGES, basis, **kw)


def heavy_hex_127(basis: str = "ibmq", **kw) -> DeviceModel:
    return make_device("heavyhex127", 127, heavy_hex_127_edges(), basis, **kw)
