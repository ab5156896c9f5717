"""Vendor basis lowering: rewrite a routed 1/2-qubit circuit into the target
machine's native gate set.

One-qubit gates go through the ZXZ Euler form U ~ RZ(a) RX(b) RZ(g) with
b in [0, pi]; the X-type factor is then realized natively (SX for IBM-style
sets, quantized RX for Rigetti/Quantinuum, GPI/GPI2 for IonQ). Two-qubit
gates reduce to CX, which each backend implements over its entangler with
fixed single-qubit dressings (verified against the defining matrices in the
test suite). Adjacent Z-rotations on the same qubit are merged mod 2pi and
dropped when they vanish; this is the only optimization in this pass.

All contracts are up to global phase.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gates
from .circuit import BARRIER, Circuit, GateIR
from .errors import NoRuleFor, UnsupportedGate

PI = math.pi
_EPS = 1e-12


@dataclass(frozen=True)
class BasisSet:
    name: str
    one_qubit_gates: tuple  # (gate name, parameter count)
    two_qubit_gate: str
    virtual_z: str = "rz"   # the frame-rotation gate name

    def gate_names(self) -> set[str]:
        return {g for g, _ in self.one_qubit_gates} | {self.two_qubit_gate}


VENDOR_BASES: dict[str, BasisSet] = {
    "ibmq": BasisSet("ibmq", (("id", 0), ("rz", 1), ("sx", 0), ("x", 0)), "cx"),
    "rigetti": BasisSet("rigetti", (("rx", 1), ("rz", 1)), "cz"),
    "ionq": BasisSet("ionq", (("gpi", 1), ("gpi2", 1), ("gz", 1)), "ms", virtual_z="gz"),
    "quantinuum": BasisSet("quantinuum", (("rx", 1), ("rz", 1)), "zz"),
    # pulse-lane basis for iSWAP-native chips
    "rigetti_pulse": BasisSet("rigetti_pulse", (("rx", 1), ("rz", 1)), "iswap"),
}


def resolve_basis(basis) -> BasisSet:
    if isinstance(basis, BasisSet):
        return basis
    if isinstance(basis, str):
        try:
            return VENDOR_BASES[basis.lower()]
        except KeyError:
            raise NoRuleFor("*", basis) from None
    raise NoRuleFor("*", str(basis))


# ---------------------------------------------------------------------------
# one-qubit Euler decomposition
# ---------------------------------------------------------------------------

def lower_1q_zxz(u: np.ndarray) -> tuple[float, float, float]:
    """(alpha, beta, gamma) with U ~ RZ(alpha) RX(beta) RZ(gamma), beta in [0, pi]."""
    u = np.asarray(u, dtype=complex)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u * cmath.exp(-1j * cmath.phase(det) / 2)
    c, s = abs(su[0, 0]), abs(su[1, 0])
    beta = 2 * math.atan2(s, c)
    if s <= 1e-11:
        return (-2 * cmath.phase(su[0, 0]), 0.0, 0.0)
    if c <= 1e-11:
        return (2 * (cmath.phase(su[1, 0]) + PI / 2), PI, 0.0)
    ssum = -2 * cmath.phase(su[0, 0])
    sdiff = 2 * (cmath.phase(su[1, 0]) + PI / 2)
    return ((ssum + sdiff) / 2, beta, (ssum - sdiff) / 2)


def _near(x: float, target: float) -> bool:
    return abs((x - target + PI) % (2 * PI) - PI) < 1e-10


# ---------------------------------------------------------------------------
# per-basis emission
# ---------------------------------------------------------------------------

class _Emitter:
    """Gate stream builder with trailing virtual-Z merging per qubit.

    Gates are built with `GateIR.trusted`: every caller passes a basis or
    routed gate name with its arity, a tuple of distinct qubits taken from a
    checked gate, and Python float parameters (angles from `math`/`cmath`
    or copied from a checked gate)."""

    def __init__(self, basis: BasisSet):
        self.basis = basis
        self.out: list[GateIR] = []
        self._tail_z: dict[int, int] = {}  # qubit -> index of trailing Z rotation

    def z(self, q: int, angle: float):
        angle = angle % (2 * PI)
        idx = self._tail_z.get(q)
        if idx is not None:
            angle = (self.out[idx].params[0] + angle) % (2 * PI)
            if angle < _EPS or 2 * PI - angle < _EPS:
                self.out[idx] = None
                del self._tail_z[q]
            else:
                self.out[idx] = GateIR.trusted(self.basis.virtual_z, (q,), (angle,))
            return
        if angle < _EPS or 2 * PI - angle < _EPS:
            return
        self.out.append(GateIR.trusted(self.basis.virtual_z, (q,), (angle,)))
        self._tail_z[q] = len(self.out) - 1

    def emit(self, name: str, qubits: tuple, params: tuple = ()):
        for q in qubits:
            self._tail_z.pop(q, None)
        self.out.append(GateIR.trusted(name, qubits, params))

    def barrier(self, qubits: tuple):
        for q in qubits:
            self._tail_z.pop(q, None)
        self.out.append(GateIR.trusted(BARRIER, qubits))

    def result(self) -> list[GateIR]:
        return [g for g in self.out if g is not None]


def _emit_1q(em: _Emitter, q: int, alpha: float, beta: float, gamma: float):
    """RZ(alpha) RX(beta) RZ(gamma) in the target basis, gamma end first."""
    basis = em.basis.name
    if _near(beta, 0.0):
        em.z(q, alpha + gamma)
        return
    if basis == "ibmq":
        if _near(beta, PI / 2):
            em.z(q, gamma)
            em.emit("sx", (q,))
            em.z(q, alpha)
        elif _near(beta, PI):
            em.z(q, gamma)
            em.emit("x", (q,))
            em.z(q, alpha)
        else:
            em.z(q, gamma + PI / 2)
            em.emit("sx", (q,))
            em.z(q, beta + PI)
            em.emit("sx", (q,))
            em.z(q, alpha + PI / 2)
    elif basis in ("rigetti", "quantinuum", "rigetti_pulse"):
        if _near(beta, PI / 2) or _near(beta, PI):
            em.z(q, gamma)
            em.emit("rx", (q,), (PI / 2 if _near(beta, PI / 2) else PI,))
            em.z(q, alpha)
        else:
            em.z(q, gamma + PI / 2)
            em.emit("rx", (q,), (PI / 2,))
            em.z(q, beta + PI)
            em.emit("rx", (q,), (PI / 2,))
            em.z(q, alpha + PI / 2)
    elif basis == "ionq":
        if _near(beta, PI / 2):
            em.z(q, gamma)
            em.emit("gpi2", (q,), (0.0,))
            em.z(q, alpha)
        elif _near(beta, PI):
            em.z(q, gamma)
            em.emit("gpi", (q,), (0.0,))
            em.z(q, alpha)
        else:
            em.z(q, gamma + PI / 2)
            em.emit("gpi2", (q,), (0.0,))
            em.z(q, beta + PI)
            em.emit("gpi2", (q,), (0.0,))
            em.z(q, alpha + PI / 2)
    else:
        raise NoRuleFor("u3", basis)


def _emit_1q_matrix(em: _Emitter, q: int, u: np.ndarray):
    alpha, beta, gamma = lower_1q_zxz(u)
    _emit_1q(em, q, alpha, beta, gamma)


_H_ZXZ = (PI / 2, PI / 2, PI / 2)  # H ~ RZ(pi/2) RX(pi/2) RZ(pi/2)


@lru_cache(maxsize=None)
def _iswap_cx_dressings():
    """Local 1q corrections making iSWAP.(RX(pi/2) (x) I).iSWAP into CX."""
    from .kak import kak_decompose
    iswap = gates.matrix("iswap")
    mid = iswap @ np.kron(gates.matrix("rx", (PI / 2,)), np.eye(2)) @ iswap
    wm = kak_decompose(mid)
    wc = kak_decompose(gates.matrix("cx"))
    left1 = wc.k1 @ wm.k1.conj().T
    left2 = wc.k2 @ wm.k2.conj().T
    right1 = wm.k3.conj().T @ wc.k3
    right2 = wm.k4.conj().T @ wc.k4
    return left1, left2, right1, right2


def _emit_cx(em: _Emitter, a: int, b: int):
    basis = em.basis.name
    if basis == "ibmq":
        em.emit("cx", (a, b))
    elif basis == "rigetti":
        _emit_1q(em, b, *_H_ZXZ)
        em.emit("cz", (a, b))
        _emit_1q(em, b, *_H_ZXZ)
    elif basis == "quantinuum":
        _emit_1q(em, b, *_H_ZXZ)
        em.emit("zz", (a, b))
        em.z(a, -PI / 2)
        em.z(b, -PI / 2)
        _emit_1q(em, b, *_H_ZXZ)
    elif basis == "ionq":
        # ry(pi/2) a; ms; rx(-pi/2) both; ry(-pi/2) a   (Molmer-Sorensen CX)
        em.emit("gpi2", (a,), (PI / 2,))
        em.emit("ms", (a, b))
        em.emit("gpi2", (a,), (PI,))
        em.emit("gpi2", (b,), (PI,))
        em.emit("gpi2", (a,), (-PI / 2,))
    elif basis == "rigetti_pulse":
        left1, left2, right1, right2 = _iswap_cx_dressings()
        _emit_1q_matrix(em, a, right1)
        _emit_1q_matrix(em, b, right2)
        em.emit("iswap", (a, b))
        em.emit("rx", (a,), (PI / 2,))
        em.emit("iswap", (a, b))
        _emit_1q_matrix(em, a, left1)
        _emit_1q_matrix(em, b, left2)
    else:
        raise NoRuleFor("cx", basis)


# ---------------------------------------------------------------------------
# main pass
# ---------------------------------------------------------------------------

def lower(circuit: Circuit, basis, keep=None) -> Circuit:
    """Decompose a routed circuit into the target basis gate set.

    Runs after routing; never changes which qubit pairs interact. Gates
    whose (name, qubits) appear in `keep` pass through untouched — used for
    calibrated composite pulse entries that replace their decomposition.
    """
    bs = resolve_basis(basis)
    native = bs.gate_names()
    em = _Emitter(bs)
    keep = keep or frozenset()
    for g in circuit.gates:
        if (g.name, g.qubits) in keep:
            em.emit(g.name, g.qubits, g.params)
            continue
        _lower_gate(em, bs, native, g)
    return Circuit(circuit.num_qubits, em.result(), list(circuit.measurements),
                   circuit.register_map, circuit.source_name)


def _lower_gate(em: _Emitter, bs: BasisSet, native: set, g: GateIR):
    name = g.name
    nq = len(g.qubits)
    if name == BARRIER:
        em.barrier(g.qubits)
        return
    if nq > 2:
        raise UnsupportedGate(f"{name} acts on {nq} qubits; decompose first")
    if name == bs.virtual_z or (name in ("rz", "u1", "gz") and bs.virtual_z in ("rz", "gz")):
        # all Z-rotation spellings collapse onto the basis frame gate
        em.z(g.qubits[0], g.params[0])
        return
    if name in native:
        if name == "rx" and bs.name in ("rigetti", "quantinuum", "rigetti_pulse"):
            # RX is quantized to {+-pi/2, pi}; other angles go through Euler
            theta = g.params[0] % (2 * PI)
            if _near(theta, 0.0):
                return
            for canonical in (PI / 2, PI, -PI / 2):
                if _near(theta, canonical):
                    em.emit("rx", g.qubits, (canonical,))
                    return
        else:
            if name == "id":
                return
            em.emit(name, g.qubits, g.params)
            return
    if nq == 1:
        _emit_1q_matrix(em, g.qubits[0], g.matrix)
        return
    # two-qubit: everything funnels through CX
    if name == "cx":
        _emit_cx(em, *g.qubits)
    elif name == "swap":
        a, b = g.qubits
        _emit_cx(em, a, b)
        _emit_cx(em, b, a)
        _emit_cx(em, a, b)
    elif name in gates.COMPOSITION_GATES:
        for child, cparams, cqubits in gates.expand(name, g.params, g.qubits):
            _lower_gate(em, bs, native, GateIR(child, cqubits, cparams))
    else:
        raise NoRuleFor(name, bs.name)
