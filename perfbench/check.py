"""Output checks written independently of the program under test.

The benchmark reads every emitted program with its own line reader and
checks it with its own gate matrices, GF(2) algebra and statevector
simulator; it never calls `qasmtrans.oracle`, which `--verify` puts under
test. Each check raises `CheckFailed` with a one-line reason.
"""
from __future__ import annotations

import math
import re

import numpy as np


class CheckFailed(Exception):
    pass


MAX_STATE_QUBITS = 12
STATE_PROBES = 2     # |0...0> and one random product state
STATE_TOL = 1e-7

_GATE_RE = re.compile(r"^([a-z][a-z0-9_]*)(?:\(([^)]*)\))?\s+(q\[\d+\](?:\s*,\s*q\[\d+\])*)\s*;$")
_MEAS_RE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]\s*;$")
_QREG_RE = re.compile(r"^qreg\s+q\[(\d+)\]\s*;$")
_QUBIT_RE = re.compile(r"q\[(\d+)\]")


class Program:
    """A flat OpenQASM 2.0 program: one qreg `q`, one creg `c`."""

    def __init__(self, num_qubits, gates, measurements):
        self.num_qubits = num_qubits
        self.gates = gates                # [(name, params tuple, qubits tuple)]
        self.measurements = measurements  # [(qubit, clbit)]

    def two_qubit_count(self) -> int:
        return sum(1 for _, _, qs in self.gates if len(qs) == 2)


def read_qasm(text: str) -> Program:
    num_qubits, gates, meas = None, [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "creg", "//")):
            continue
        m = _QREG_RE.match(line)
        if m:
            if num_qubits is not None:
                raise CheckFailed("more than one qreg")
            num_qubits = int(m.group(1))
            continue
        m = _MEAS_RE.match(line)
        if m:
            meas.append((int(m.group(1)), int(m.group(2))))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise CheckFailed(f"unreadable line {line[:60]!r}")
        params = tuple(float(p) for p in m.group(2).split(",")) if m.group(2) else ()
        qubits = tuple(int(q) for q in _QUBIT_RE.findall(m.group(3)))
        gates.append((m.group(1), params, qubits))
    if num_qubits is None:
        raise CheckFailed("no qreg")
    return Program(num_qubits, gates, meas)


# ---------------------------------------------------------------------------
# compliance
# ---------------------------------------------------------------------------

# basis -> {gate name: (qubits, params)}
BASES = {
    "ibmq": {"rz": (1, 1), "sx": (1, 0), "x": (1, 0), "id": (1, 0), "cx": (2, 0)},
    "rigetti": {"rx": (1, 1), "rz": (1, 1), "cz": (2, 0)},
    "rigetti_pulse": {"rx": (1, 1), "rz": (1, 1), "iswap": (2, 0)},
}
VIRTUAL_Z = {"rz"}


def check_compliance(prog: Program, basis: str, edges: set, num_qubits: int):
    """Basis gates only, two-qubit gates on coupling edges, finite params."""
    allowed = BASES[basis]
    if prog.num_qubits != num_qubits:
        raise CheckFailed(f"qreg has {prog.num_qubits} qubits, device {num_qubits}")
    for name, params, qubits in prog.gates:
        if name not in allowed:
            raise CheckFailed(f"gate {name} not in basis {basis}")
        nq, npar = allowed[name]
        if len(qubits) != nq or len(params) != npar or len(set(qubits)) != nq:
            raise CheckFailed(f"bad arity {name}{params} {qubits}")
        if any(q >= num_qubits for q in qubits):
            raise CheckFailed(f"qubit out of range in {name} {qubits}")
        if not all(math.isfinite(p) for p in params):
            raise CheckFailed(f"non-finite parameter in {name}{params}")
        if nq == 2 and (min(qubits), max(qubits)) not in edges:
            raise CheckFailed(f"{name} on {qubits} is not a coupling edge")


def check_measurements(src: Program, out: Program, final_layout):
    """Every source measurement survives, moved to the final physical qubit."""
    want = sorted((final_layout[v], c) for v, c in src.measurements)
    if sorted(out.measurements) != want:
        raise CheckFailed("measurements not kept under the final layout")


# ---------------------------------------------------------------------------
# exact GF(2) equivalence for CX-only programs
# ---------------------------------------------------------------------------

def _gf2_map(prog: Program, n: int) -> np.ndarray:
    """Row t = the input bits XORed into output bit t."""
    rows = np.eye(n, dtype=np.uint8)
    for name, _params, (c, t) in ((g[0], g[1], g[2]) for g in prog.gates):
        if name != "cx":
            raise CheckFailed(f"{name} in a CX-only program")
        rows[t] ^= rows[c]
    return rows


def check_gf2(src: Program, out: Program, initial, final):
    """out == P_final . src . P_initial^-1 as linear maps over GF(2)."""
    n_phys = out.num_qubits
    a = _gf2_map(src, src.num_qubits)
    b = _gf2_map(out, n_phys)
    # express the output map over virtual inputs: physical bit initial[v] carries x_v
    cols = list(initial)
    for v in range(src.num_qubits):
        if not np.array_equal(b[final[v]][cols], a[v]):
            raise CheckFailed(f"GF(2) map differs on virtual qubit {v}")
    for p in sorted(set(range(n_phys)) - set(final)):
        if b[p][cols].any():
            raise CheckFailed(f"ancilla {p} does not return to 0")


# ---------------------------------------------------------------------------
# statevector equivalence
# ---------------------------------------------------------------------------

def _rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]),
    "t": np.diag([1, np.exp(0.25j * math.pi)]),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "id": np.eye(2, dtype=complex),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "iswap": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
}


def gate_matrix(name, params):
    if name == "rz":
        return _rz(params[0])
    if name == "rx":
        return _rx(params[0])
    try:
        return _FIXED[name]
    except KeyError:
        raise CheckFailed(f"no reference matrix for {name}") from None


def _evolve(state, gates, index):
    """Apply gates to a tensor with one axis per qubit; index maps qubit -> axis."""
    for name, params, qubits in gates:
        k = len(qubits)
        u = gate_matrix(name, params).reshape([2] * (2 * k))
        axes = [index[q] for q in qubits]
        state = np.tensordot(u, state, axes=(list(range(k, 2 * k)), axes))
        state = np.moveaxis(state, list(range(k)), axes)
    return state


def _product(locals_):
    psi = np.array([1.0 + 0j])
    for v in locals_:
        psi = np.kron(psi, v)
    return psi.reshape([2] * len(locals_))


def check_statevector(src: Program, out: Program, initial, final, qubits=None,
                      seed: int = 0):
    """Run src and out from the same product states and compare, up to global
    phase, with virtual qubit v read from physical qubit final[v].

    `qubits` is the physical set the output may touch (default: every qubit
    the output acts on plus the layouts). Without `initial`, only |0...0> is
    probed, which needs no initial layout. Returns False when the check is
    too large to run.
    """
    n = src.num_qubits
    active = set(qubits) if qubits is not None else (
        {q for g in out.gates for q in g[2]} | set(final) | set(initial or ()))
    if n > MAX_STATE_QUBITS or len(active) > MAX_STATE_QUBITS:
        return False
    order = sorted(active)
    index = {q: i for i, q in enumerate(order)}
    if any(q not in index for g in out.gates for q in g[2]):
        raise CheckFailed("output acts outside its qubit set")
    rng = np.random.default_rng(seed)
    zero = np.array([1.0, 0.0], dtype=complex)
    for probe in range(STATE_PROBES if initial is not None else 1):
        if probe == 0:
            local = [zero] * n
        else:
            local = []
            for _ in range(n):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                local.append(v / np.linalg.norm(v))
        ref = _evolve(_product(local), src.gates, {q: q for q in range(n)})
        slot = {initial[v]: v for v in range(n)} if initial is not None else {}
        start = _product([local[slot[p]] if p in slot else zero for p in order])
        got = _evolve(start, out.gates, index)
        perm = [index[final[v]] for v in range(n)]
        perm += [a for a in range(len(order)) if a not in perm]
        got = np.transpose(got, perm).reshape(1 << n, -1)
        if np.linalg.norm(got[:, 1:]) > STATE_TOL:
            raise CheckFailed("an ancilla does not return to |0>")
        overlap = abs(np.vdot(ref.reshape(-1), got[:, 0]))
        if abs(overlap - 1.0) > STATE_TOL:
            raise CheckFailed(f"statevector mismatch (overlap {overlap:.12f})")
    return True


# ---------------------------------------------------------------------------
# space-share regions
# ---------------------------------------------------------------------------

def connected(qubits: set, adj: dict) -> bool:
    start = next(iter(qubits))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in qubits and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == qubits


def check_regions(regions: list[set], sizes: list[int], adj: dict):
    """Regions are disjoint, connected and exactly as large as their circuits."""
    seen: set = set()
    for reg, size in zip(regions, sizes):
        if len(reg) != size:
            raise CheckFailed(f"region of {len(reg)} qubits for a {size}-qubit circuit")
        if reg & seen:
            raise CheckFailed("regions overlap")
        if not connected(reg, adj):
            raise CheckFailed("region is not connected")
        seen |= reg


# ---------------------------------------------------------------------------
# cost of an emitted program under the device calibration
# ---------------------------------------------------------------------------

class Calibration:
    def __init__(self, doc: dict):
        self.num_qubits = doc["num_qubits"]
        self.edges = {(min(a, b), max(a, b)) for a, b in doc["edges"]}
        self.adj = {q: set() for q in range(self.num_qubits)}
        for a, b in self.edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.e1 = [q["e1"] for q in doc["qubits"]]
        self.readout = [q["readout_error"] for q in doc["qubits"]]
        self.e2 = {tuple(e["pair"]): e["e2"] for e in doc["edges_cal"]}
        self.edge_ns = {tuple(e["pair"]): e["duration_ns"] for e in doc["edges_cal"]}
        self.ns = dict(doc["gate_durations"])

    def duration_ns(self, prog: Program) -> float:
        """ASAP makespan under the calibrated gate durations."""
        ready = [0.0] * prog.num_qubits
        for name, _params, qubits in prog.gates:
            if name in VIRTUAL_Z:
                continue
            key = (min(qubits), max(qubits))
            d = self.edge_ns[key] if len(qubits) == 2 else self.ns[name]
            t = max(ready[q] for q in qubits) + d
            for q in qubits:
                ready[q] = t
        return max(ready, default=0.0)

    def nlog_esp(self, prog: Program) -> float:
        """-ln of the estimated success probability (virtual Z is free)."""
        total = 0.0
        for name, _params, qubits in prog.gates:
            if name in VIRTUAL_Z:
                continue
            e = self.e2[(min(qubits), max(qubits))] if len(qubits) == 2 else self.e1[qubits[0]]
            total -= math.log1p(-e)
        for q, _c in prog.measurements:
            total -= math.log1p(-self.readout[q])
        return total
