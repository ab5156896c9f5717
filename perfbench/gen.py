"""Seeded inputs for the benchmark: OpenQASM 2.0 text and device JSON.

Everything the program under test reads is produced here from the workload
seed, with numpy's PCG64 generator, and written as files. Nothing is taken
from the test suite or from `qasmtrans.devicelib`, so the inputs stay the
same while those modules change.
"""
from __future__ import annotations

import json

import numpy as np

HEADER = ['OPENQASM 2.0;', 'include "qelib1.inc";']

# gate durations in ns per basis; virtual-Z gates cost nothing
DURATIONS = {
    "ibmq": {"rz": 0.0, "id": 35.0, "sx": 35.0, "x": 35.0, "cx": 300.0},
    "rigetti": {"rz": 0.0, "rx": 40.0, "cz": 180.0},
    "rigetti_pulse": {"rz": 0.0, "rx": 10.0, "iswap": 40.0},
}
TWO_QUBIT = {"ibmq": "cx", "rigetti": "cz", "rigetti_pulse": "iswap"}

# calibration before jitter: one-qubit error, two-qubit error, readout error
E1, E2, READOUT_ERROR = 0.001, 0.01, 0.02

DEEP_QUBITS, DEEP_GATES = 21, 87_000   # the 87k-gate throughput target
P_TWO = 0.4                            # share of CX in random_measured

# 27-qubit heavy-hex coupling in the Falcon (Toronto-style) arrangement
TORONTO_EDGES = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
    (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22),
    (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream...) so workloads do not share draws."""
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------

def line_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def heavy_hex_127_edges() -> list[tuple[int, int]]:
    """7 rows of 13 qubits joined by 36 bridge qubits (127 in all)."""
    rows, cols = 7, 13
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    bridge = rows * cols
    for gap in range(rows - 1):
        for c in (range(0, cols - 1, 2) if gap % 2 == 0 else range(1, cols, 2)):
            edges += [(gap * cols + c, bridge), (bridge, (gap + 1) * cols + c)]
            bridge += 1
    return edges


def device_json(name: str, num_qubits: int, edges, basis: str, rng=None,
                t1_us: float = 100.0, t2_us: float = 80.0) -> dict:
    """Device document in the `qasmtrans-device/1` schema.

    With `rng`, every calibration value is jittered by up to +-25% (coherence
    times +-20%), which gives noise-adaptive placement something to choose.
    """
    def jitter(x, spread=0.5):
        return x if rng is None else float(x * (1.0 + spread * (rng.random() - 0.5)))

    durations = dict(DURATIONS[basis])
    qubits = []
    for _ in range(num_qubits):
        t1 = jitter(t1_us, 0.4)
        qubits.append({"t1_us": t1, "t2_us": min(jitter(t2_us, 0.4), 2 * t1),
                       "readout_error": jitter(READOUT_ERROR), "e1": jitter(E1),
                       "gate_durations": {}})
    two_q = durations[TWO_QUBIT[basis]]
    edges = sorted((min(a, b), max(a, b)) for a, b in edges)
    return {
        "version": "qasmtrans-device/1", "name": name, "num_qubits": num_qubits,
        "edges": [list(e) for e in edges], "basis": basis, "qubits": qubits,
        "edges_cal": [{"pair": list(e), "e2": jitter(E2), "duration_ns": two_q} for e in edges],
        "gate_durations": durations,
    }


def dump_device(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

def deep_line(rng) -> str:
    """Layered circuit: mostly nearest-neighbour CX with a rare remote pair,
    random-angle rz, sx and x (the shape of the 87k-gate throughput target)."""
    n, n_gates = DEEP_QUBITS, DEEP_GATES
    lines = HEADER + [f"qreg q[{n}];", f"creg c[{n}];"]
    count = 0
    while count < n_gates:
        order = rng.permutation(n)
        i = 0
        while i < n and count < n_gates:
            q = int(order[i])
            r = float(rng.random())
            if i + 1 < n and r < 0.25:
                p = int(order[i + 1])
                a, b = min(q, p), min(q, p) + 1
                if rng.random() < 0.004:
                    a, b = sorted((q, p))
                if b >= n:
                    a, b = n - 2, n - 1
                lines.append(f"cx q[{a}],q[{b}];")
                i += 2
            elif r < 0.6:
                lines.append(f"rz({rng.uniform(-3, 3)!r}) q[{q}];")
                i += 1
            else:
                lines.append(("sx" if r < 0.8 else "x") + f" q[{q}];")
                i += 1
            count += 1
    return "\n".join(lines) + "\n"


def random_cx(rng, n: int, n_gates: int) -> str:
    """CX-only circuit on uniformly random distinct qubit pairs."""
    lines = HEADER + [f"qreg q[{n}];"]
    for _ in range(n_gates):
        a, b = rng.choice(n, 2, replace=False)
        lines.append(f"cx q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


ONE_Q = ("h", "t", "s", "x", "rz", "rx")


def random_measured(rng, n: int, depth: int, shape=None) -> str:
    """Random 1q/CX circuit on n qubits, every qubit measured at the end.

    `shape`, when given, draws which positions hold a CX and on which pair;
    `rng` draws the one-qubit gates and angles. Routing depends on the CX
    pattern alone and placement cost mostly so, so a fixed `shape` stream
    keeps that cost steady across seeds while the seed still changes every
    input file.
    """
    shape = shape or rng
    lines = HEADER + [f"qreg q[{n}];", f"creg c[{n}];"]
    for _ in range(depth):
        if shape.random() < P_TWO:
            a, b = shape.choice(n, 2, replace=False)
            lines.append(f"cx q[{a}],q[{b}];")
        else:
            name = ONE_Q[int(rng.integers(len(ONE_Q)))]
            q = int(rng.integers(n))
            if name in ("rz", "rx"):
                lines.append(f"{name}({rng.uniform(-np.pi, np.pi)!r}) q[{q}];")
            else:
                lines.append(f"{name} q[{q}];")
    lines += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    return "\n".join(lines) + "\n"


def brickwork(rng, layers: int, n: int = 4) -> str:
    """Alternating CX bricks of random orientation, with a random one-qubit
    gate on every qubit in each layer; the lowered pulse makespan hardly
    depends on the draw."""
    lines = HEADER + [f"qreg q[{n}];", f"creg c[{n}];"]
    for layer in range(layers):
        for q in range(n):
            name = ONE_Q[int(rng.integers(len(ONE_Q)))]
            if name in ("rz", "rx"):
                lines.append(f"{name}({rng.uniform(-np.pi, np.pi)!r}) q[{q}];")
            else:
                lines.append(f"{name} q[{q}];")
        for a in range(layer % 2, n - 1, 2):
            c, t = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
            lines.append(f"cx q[{c}],q[{t}];")
    lines += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    return "\n".join(lines) + "\n"
