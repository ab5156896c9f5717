"""Gate vocabulary: matrices, arities, and composition-gate expansions.

Supported names fall into three groups:
  * basic/standard gates (u3..rz) carry an explicit matrix formula;
  * composition gates (cz..c3sqrtx) are defined by an expansion into
    basic/standard gates and their matrix is the exact product of that
    expansion;
  * device extension gates (sx, iswap, gpi, ...) used by the lowering
    backends, with explicit matrices so transpiled output re-parses.

Qubit 0 of a gate is the most significant bit of the matrix index, so a
two-qubit gate on (control, target) has the conventional CX layout.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UnknownGate

PI = math.pi

# name -> (qubit count, parameter count)
GATE_INFO: dict[str, tuple[int, int]] = {
    # basic
    "u3": (1, 3), "u2": (1, 2), "u1": (1, 1), "cx": (2, 0), "id": (1, 0),
    # standard
    "x": (1, 0), "y": (1, 0), "z": (1, 0), "h": (1, 0),
    "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1),
    # composition
    "cz": (2, 0), "cy": (2, 0), "swap": (2, 0), "ch": (2, 0),
    "ccx": (3, 0), "cswap": (3, 0),
    "crx": (2, 1), "cry": (2, 1), "crz": (2, 1), "cu1": (2, 1), "cu3": (2, 3),
    "rxx": (2, 1), "rzz": (2, 1),
    "rccx": (3, 0), "rc3x": (4, 0), "c3x": (4, 0), "c3sqrtx": (4, 0),
    # device extensions (not part of qelib1; emitted by the lowering backends)
    "sx": (1, 0), "iswap": (2, 0), "ms": (2, 0), "zz": (2, 0),
    "gpi": (1, 1), "gpi2": (1, 1), "gz": (1, 1),
}

STANDARD_GATES = frozenset(
    ["u3", "u2", "u1", "cx", "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz"]
)
COMPOSITION_GATES = frozenset(
    ["cz", "cy", "swap", "ch", "ccx", "cswap", "crx", "cry", "crz", "cu1", "cu3",
     "rxx", "rzz", "rccx", "rc3x", "c3x", "c3sqrtx"]
)
EXTENSION_GATES = frozenset(["sx", "iswap", "ms", "zz", "gpi", "gpi2", "gz"])


def num_qubits_of(name: str) -> int:
    try:
        return GATE_INFO[name][0]
    except KeyError:
        raise UnknownGate(name) from None


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


_SQ2 = 1 / math.sqrt(2)

_FIXED_1Q = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(1j * PI / 4)]),
    "tdg": np.diag([1, np.exp(-1j * PI / 4)]),
    "sx": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
}

_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
# Molmer-Sorensen XX interaction, exp(-i pi/4 XX)
_MS = np.array(
    [[1, 0, 0, -1j], [0, 1, -1j, 0], [0, -1j, 1, 0], [-1j, 0, 0, 1]], dtype=complex
) * _SQ2
# native ZZ interaction, exp(-i pi/4 ZZ)
_ZZ = np.diag(np.exp(-1j * PI / 4 * np.array([1, -1, -1, 1])))


def _matrix_for(name: str, params: tuple) -> np.ndarray:
    if name in _FIXED_1Q:
        return _FIXED_1Q[name].copy()
    if name == "u3":
        return _u3(*params)
    if name == "u2":
        return _u3(PI / 2, *params)
    if name == "u1" or name == "rz" or name == "gz":
        # qelib1 defines rz(phi) as u1(phi); gz is the IonQ virtual-Z frame gate
        return np.diag([1, np.exp(1j * params[0])])
    if name == "rx":
        return _u3(params[0], -PI / 2, PI / 2)
    if name == "ry":
        return _u3(params[0], 0, 0)
    if name == "cx":
        return _CX.copy()
    if name == "iswap":
        return _ISWAP.copy()
    if name == "ms":
        return _MS.copy()
    if name == "zz":
        return _ZZ.copy()
    if name == "gpi":
        phi = params[0]
        return np.array([[0, np.exp(-1j * phi)], [np.exp(1j * phi), 0]])
    if name == "gpi2":
        phi = params[0]
        return np.array(
            [[1, -1j * np.exp(-1j * phi)], [-1j * np.exp(1j * phi), 1]]
        ) * _SQ2
    if name in EXPANSIONS:
        return _expansion_matrix(name, params)
    raise UnknownGate(name)


@lru_cache(maxsize=4096)
def _cached_matrix(name: str, params: tuple) -> tuple[np.ndarray, np.ndarray]:
    m = _matrix_for(name, params)
    re = np.ascontiguousarray(m.real)
    im = np.ascontiguousarray(m.imag)
    re.setflags(write=False)
    im.setflags(write=False)
    return re, im


def matrix_parts(name: str, params: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the gate matrix (shared, read-only)."""
    return _cached_matrix(name, tuple(map(float, params)))


def matrix(name: str, params: tuple = ()) -> np.ndarray:
    re, im = matrix_parts(name, params)
    return re + 1j * im


# ---------------------------------------------------------------------------
# composition-gate expansions (qelib1-style definitions)
# ---------------------------------------------------------------------------
# Each entry: list of (gate name, param functions, local qubit indices).
# Param functions map the parent parameter tuple to one child parameter.

def _k(value):
    return lambda p: value


EXPANSIONS: dict[str, list[tuple[str, tuple, tuple]]] = {
    "cz": [("h", (), (1,)), ("cx", (), (0, 1)), ("h", (), (1,))],
    "cy": [("sdg", (), (1,)), ("cx", (), (0, 1)), ("s", (), (1,))],
    "swap": [("cx", (), (0, 1)), ("cx", (), (1, 0)), ("cx", (), (0, 1))],
    "ch": [
        ("h", (), (1,)), ("sdg", (), (1,)),
        ("cx", (), (0, 1)),
        ("h", (), (1,)), ("t", (), (1,)),
        ("cx", (), (0, 1)),
        ("t", (), (1,)), ("h", (), (1,)), ("s", (), (1,)), ("x", (), (1,)),
        ("s", (), (0,)),
    ],
    # textbook 6-CX / 9 one-qubit Toffoli
    "ccx": [
        ("h", (), (2,)),
        ("cx", (), (1, 2)), ("tdg", (), (2,)),
        ("cx", (), (0, 2)), ("t", (), (2,)),
        ("cx", (), (1, 2)), ("tdg", (), (2,)),
        ("cx", (), (0, 2)), ("t", (), (1,)), ("t", (), (2,)), ("h", (), (2,)),
        ("cx", (), (0, 1)), ("t", (), (0,)), ("tdg", (), (1,)),
        ("cx", (), (0, 1)),
    ],
    "cswap": [("cx", (), (2, 1)), ("ccx", (), (0, 1, 2)), ("cx", (), (2, 1))],
    "crx": [
        ("u1", (_k(PI / 2),), (1,)),
        ("cx", (), (0, 1)),
        ("u3", (lambda p: -p[0] / 2, _k(0.0), _k(0.0)), (1,)),
        ("cx", (), (0, 1)),
        ("u3", (lambda p: p[0] / 2, _k(-PI / 2), _k(0.0)), (1,)),
    ],
    "cry": [
        ("ry", (lambda p: p[0] / 2,), (1,)),
        ("cx", (), (0, 1)),
        ("ry", (lambda p: -p[0] / 2,), (1,)),
        ("cx", (), (0, 1)),
    ],
    "crz": [
        ("rz", (lambda p: p[0] / 2,), (1,)),
        ("cx", (), (0, 1)),
        ("rz", (lambda p: -p[0] / 2,), (1,)),
        ("cx", (), (0, 1)),
    ],
    "cu1": [
        ("u1", (lambda p: p[0] / 2,), (0,)),
        ("cx", (), (0, 1)),
        ("u1", (lambda p: -p[0] / 2,), (1,)),
        ("cx", (), (0, 1)),
        ("u1", (lambda p: p[0] / 2,), (1,)),
    ],
    "cu3": [
        ("u1", (lambda p: (p[2] + p[1]) / 2,), (0,)),
        ("u1", (lambda p: (p[2] - p[1]) / 2,), (1,)),
        ("cx", (), (0, 1)),
        ("u3", (lambda p: -p[0] / 2, _k(0.0), lambda p: -(p[1] + p[2]) / 2), (1,)),
        ("cx", (), (0, 1)),
        ("u3", (lambda p: p[0] / 2, lambda p: p[1], _k(0.0)), (1,)),
    ],
    "rxx": [
        ("u3", (_k(PI / 2), lambda p: p[0], _k(0.0)), (0,)),
        ("h", (), (1,)),
        ("cx", (), (0, 1)),
        ("u1", (lambda p: -p[0],), (1,)),
        ("cx", (), (0, 1)),
        ("h", (), (1,)),
        ("u2", (_k(-PI), lambda p: PI - p[0]), (0,)),
    ],
    "rzz": [
        ("cx", (), (0, 1)),
        ("u1", (lambda p: p[0],), (1,)),
        ("cx", (), (0, 1)),
    ],
    # relative-phase Toffoli (Margolus form)
    "rccx": [
        ("u2", (_k(0.0), _k(PI)), (2,)),
        ("u1", (_k(PI / 4),), (2,)),
        ("cx", (), (1, 2)),
        ("u1", (_k(-PI / 4),), (2,)),
        ("cx", (), (0, 2)),
        ("u1", (_k(PI / 4),), (2,)),
        ("cx", (), (1, 2)),
        ("u1", (_k(-PI / 4),), (2,)),
        ("u2", (_k(0.0), _k(PI)), (2,)),
    ],
    "rc3x": [
        ("u2", (_k(0.0), _k(PI)), (3,)),
        ("u1", (_k(PI / 4),), (3,)),
        ("cx", (), (2, 3)),
        ("u1", (_k(-PI / 4),), (3,)),
        ("u2", (_k(0.0), _k(PI)), (3,)),
        ("cx", (), (0, 3)),
        ("u1", (_k(PI / 4),), (3,)),
        ("cx", (), (1, 3)),
        ("u1", (_k(-PI / 4),), (3,)),
        ("cx", (), (0, 3)),
        ("u1", (_k(PI / 4),), (3,)),
        ("cx", (), (1, 3)),
        ("u1", (_k(-PI / 4),), (3,)),
        ("u2", (_k(0.0), _k(PI)), (3,)),
        ("u1", (_k(PI / 4),), (3,)),
        ("cx", (), (2, 3)),
        ("u1", (_k(-PI / 4),), (3,)),
        ("u2", (_k(0.0), _k(PI)), (3,)),
    ],
}


def _phase_gadget_mcx(angle: float) -> list[tuple[str, tuple, tuple]]:
    """3-controlled phase network: H on target, cu1 ladder, H on target.

    The cu1 angles follow the parity decomposition
    phase = angle*(a + b + c - a^b - b^c - a^c + a^b^c), which totals
    4*angle exactly when all three controls are set.
    """
    cp = lambda a, q: ("cu1", (_k(a),), (q, 3))
    return [
        ("h", (), (3,)),
        cp(angle, 0), cp(angle, 1), cp(angle, 2),
        ("cx", (), (0, 1)),            # b <- a^b
        cp(-angle, 1),
        ("cx", (), (1, 2)),            # c <- a^b^c
        cp(angle, 2),
        ("cx", (), (0, 2)),            # c <- b^c
        cp(-angle, 2),
        ("cx", (), (1, 2)),            # c <- a^c
        cp(-angle, 2),
        ("cx", (), (0, 2)),            # c restored
        ("cx", (), (0, 1)),            # b restored
        ("h", (), (3,)),
    ]


EXPANSIONS["c3x"] = _phase_gadget_mcx(PI / 4)
EXPANSIONS["c3sqrtx"] = _phase_gadget_mcx(PI / 8)


def expand(name: str, params: tuple, qubits: tuple) -> list[tuple[str, tuple, tuple]]:
    """One level of expansion: concrete (name, params, qubits) triples."""
    out = []
    for child, param_fns, locs in EXPANSIONS[name]:
        child_params = tuple(fn(params) for fn in param_fns)
        out.append((child, child_params, tuple(qubits[i] for i in locs)))
    return out


def _expansion_matrix(name: str, params: tuple) -> np.ndarray:
    n = GATE_INFO[name][0]
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for child, child_params, qubits in expand(name, params, tuple(range(n))):
        u = _apply_to_unitary(u, matrix(child, child_params), qubits, n)
    return u


def _apply_to_unitary(u: np.ndarray, gate: np.ndarray, qubits: tuple, n: int) -> np.ndarray:
    """Left-multiply gate (acting on `qubits`) onto the n-qubit unitary u."""
    k = len(qubits)
    dim = 1 << n
    t = u.reshape([2] * n + [dim])
    g = gate.reshape([2] * (2 * k))
    t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), list(qubits)))
    # tensordot moved the contracted axes to the front; put them back
    perm = [0] * (n + 1)
    rest = [ax for ax in range(n) if ax not in qubits]
    for i, q in enumerate(qubits):
        perm[q] = i
    for i, q in enumerate(rest):
        perm[q] = k + i
    perm[n] = n
    return t.transpose(perm).reshape(dim, dim)


# defining matrices for composition gates, for equivalence testing

def controlled(u: np.ndarray, num_controls: int = 1) -> np.ndarray:
    dim = u.shape[0] << num_controls
    out = np.eye(dim, dtype=complex)
    out[-u.shape[0]:, -u.shape[0]:] = u
    return out


def defining_matrix(name: str, params: tuple = ()) -> np.ndarray:
    """Textbook matrix a composition gate must match up to global phase."""
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "cy":
        return controlled(matrix("y"))
    if name == "swap":
        m = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        return m
    if name == "ch":
        return controlled(matrix("h"))
    if name == "ccx":
        return controlled(matrix("x"), 2)
    if name == "cswap":
        return controlled(defining_matrix("swap"))
    if name == "crx":
        return controlled(matrix("rx", params))
    if name == "cry":
        return controlled(matrix("ry", params))
    if name == "crz":
        theta = params[0]
        return controlled(np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))
    if name == "cu1":
        return np.diag([1, 1, 1, np.exp(1j * params[0])])
    if name == "cu3":
        return controlled(matrix("u3", params))
    if name == "rxx":
        xx = np.fliplr(np.eye(4)).astype(complex)
        return _expm_herm(-params[0] / 2 * xx)
    if name == "rzz":
        return np.diag(np.exp(-1j * params[0] / 2 * np.array([1, -1, -1, 1])))
    if name == "c3x":
        return controlled(matrix("x"), 3)
    if name == "c3sqrtx":
        return controlled(matrix("sx"), 3)
    if name in ("rccx", "rc3x"):
        # relative-phase gates are defined by their own expansion
        return matrix(name, params)
    raise UnknownGate(name)


def _expm_herm(h: np.ndarray) -> np.ndarray:
    """exp(i*h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T
