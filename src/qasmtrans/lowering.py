"""Vendor basis lowering: rewrite a routed 1/2-qubit circuit into the target
machine's native gate set.

Each basis is one `BasisSet` row of rules. One-qubit gates go through the
ZXZ Euler form U ~ RZ(a) RX(b) RZ(g) with b in [0, pi]; the X-type factor is
realized with the row's half-turn and full-turn pulses (SX/X for IBM-style
sets, quantized RX for Rigetti/Quantinuum, GPI2/GPI for IonQ). Two-qubit
gates reduce to CX, which each row implements over its entangler with a
fixed template (verified against the defining matrices in the test suite).
Adjacent Z-rotations on the same qubit are merged mod 2pi and dropped when
they vanish; this is the only optimization in this pass. The parameterless
one-qubit gates read frozen Euler rows (`FIXED_EULER`), so only parameterised
non-native one-qubit gates build a matrix and load numpy.

All contracts are up to global phase.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import gates
from .circuit import BARRIER, Circuit, GateIR
from .errors import NoRuleFor, UnsupportedGate

if TYPE_CHECKING:
    import numpy as np

PI = math.pi
_EPS = 1e-12

# A CX template is a tuple of (kind, local qubits, params) steps. The kind is
# a basis gate name, FRAME (one merged Z rotation by params[0]) or EULER (the
# one-qubit gate RZ(params[0]) RX(params[1]) RZ(params[2])). Local qubits
# index ((control,), (target,), (control, target)).
FRAME, EULER = "frame", "euler"
A, B, AB = 0, 1, 2


@dataclass(frozen=True)
class BasisSet:
    name: str
    one_qubit_gates: tuple[str, ...]
    two_qubit_gate: str
    half_pulse: tuple   # (gate, params) realizing RX(pi/2) up to phase
    full_pulse: tuple   # (gate, params) realizing RX(pi) up to phase
    cx: tuple           # CX template, steps as above
    virtual_z: str = "rz"   # the frame-rotation gate name

    def gate_names(self) -> set[str]:
        return set(self.one_qubit_gates) | {self.two_qubit_gate}


_RX_HALF, _RX_FULL = ("rx", (PI / 2,)), ("rx", (PI,))
_H_ON_TARGET = (EULER, B, (PI / 2, PI / 2, PI / 2))  # H ~ RZ(pi/2) RX(pi/2) RZ(pi/2)

VENDOR_BASES: dict[str, BasisSet] = {
    "ibmq": BasisSet("ibmq", ("id", "rz", "sx", "x"), "cx", ("sx", ()), ("x", ()),
                     (("cx", AB, ()),)),
    "rigetti": BasisSet("rigetti", ("rx", "rz"), "cz", _RX_HALF, _RX_FULL,
                        (_H_ON_TARGET, ("cz", AB, ()), _H_ON_TARGET)),
    # ry(pi/2) a; ms; rx(-pi/2) both; ry(-pi/2) a   (Molmer-Sorensen CX)
    "ionq": BasisSet("ionq", ("gpi", "gpi2", "gz"), "ms", ("gpi2", (0.0,)), ("gpi", (0.0,)),
                     (("gpi2", A, (PI / 2,)), ("ms", AB, ()), ("gpi2", A, (PI,)),
                      ("gpi2", B, (PI,)), ("gpi2", A, (-PI / 2,))),
                     virtual_z="gz"),
    "quantinuum": BasisSet("quantinuum", ("rx", "rz"), "zz", _RX_HALF, _RX_FULL,
                           (_H_ON_TARGET, ("zz", AB, ()), (FRAME, A, (-PI / 2,)),
                            (FRAME, B, (-PI / 2,)), _H_ON_TARGET)),
    # pulse-lane basis for iSWAP-native chips: iSWAP.(RX(pi/2) (x) I).iSWAP
    # between the local dressings that make it CX, as the ZXZ angles of the
    # KAK factors (recomputed in the test suite)
    "rigetti_pulse": BasisSet(
        "rigetti_pulse", ("rx", "rz"), "iswap", _RX_HALF, _RX_FULL,
        ((EULER, A, (-2.156818736633614, 3.141592653589793, 0.0)),
         (EULER, B, (1.5707963267948966, 0.5860224098387175, 3.141592653589793)),
         ("iswap", AB, ()), ("rx", A, (PI / 2,)), ("iswap", AB, ()),
         (EULER, A, (2.5555702437510757, 3.141592653589793, 0.0)),
         (EULER, B, (3.3306690738754696e-16, 2.156818736633614, -1.5707963267948961)))),
}

# every basis's two-qubit gate: cx, cz, ms, zz, iswap
ENTANGLERS = frozenset(b.two_qubit_gate for b in VENDOR_BASES.values())


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
    import numpy as np
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


# lower_1q_zxz(gates.matrix(name)) of every parameterless one-qubit gate, as
# its exact float values, signed zeros included (the test suite recomputes
# them); t's alpha is one ulp above PI / 4
FIXED_EULER: dict[str, tuple[float, float, float]] = {
    "id": (-0.0, 0.0, 0.0),
    "x": (0.0, PI, 0.0),
    "y": (PI, PI, 0.0),
    "z": (PI, 0.0, 0.0),
    "h": (PI / 2, PI / 2, PI / 2),
    "s": (PI / 2, 0.0, 0.0),
    "sdg": (-PI / 2, 0.0, 0.0),
    "t": (0.7853981633974484, 0.0, 0.0),
    "tdg": (-0.7853981633974484, 0.0, 0.0),
    "sx": (-7.850462293418876e-17, PI / 2, -7.850462293418876e-17),
}


def _near(x: float, target: float) -> bool:
    return abs((x - target + PI) % (2 * PI) - PI) < 1e-10


# ---------------------------------------------------------------------------
# emission: one interpreter for every basis row
# ---------------------------------------------------------------------------

class _Emitter:
    """Gate stream builder with trailing virtual-Z merging per qubit.

    Gates are built with `GateIR.trusted`: every caller passes a basis or
    routed gate name with its arity, a tuple of distinct qubits taken from a
    checked gate, and Python float parameters (angles from `math`/`cmath`,
    the basis table, or copied from a checked gate)."""

    def __init__(self, basis: BasisSet):
        self.basis = basis
        self.half, self.full, self.cx = basis.half_pulse, basis.full_pulse, basis.cx
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
    if _near(beta, 0.0):
        em.z(q, alpha + gamma)
        return
    qs = (q,)
    if _near(beta, PI / 2):
        name, params = em.half
    elif _near(beta, PI):
        name, params = em.full
    else:
        name, params = em.half
        em.z(q, gamma + PI / 2)
        em.emit(name, qs, params)
        em.z(q, beta + PI)
        em.emit(name, qs, params)
        em.z(q, alpha + PI / 2)
        return
    em.z(q, gamma)
    em.emit(name, qs, params)
    em.z(q, alpha)


def _emit_cx(em: _Emitter, a: int, b: int):
    on = ((a,), (b,), (a, b))
    for kind, local, params in em.cx:
        if kind == FRAME:
            em.z(on[local][0], params[0])
        elif kind == EULER:
            _emit_1q(em, on[local][0], *params)
        else:
            em.emit(kind, on[local], params)


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
    if name in ("rz", "u1", "gz"):
        # all Z-rotation spellings collapse onto the basis frame gate
        em.z(g.qubits[0], g.params[0])
        return
    if name in native:
        if name == "rx":
            # RX is quantized to {+-pi/2, pi}; other angles go through Euler
            theta = g.params[0] % (2 * PI)
            if _near(theta, 0.0):
                return
            for canonical in (PI / 2, PI, -PI / 2):
                if _near(theta, canonical):
                    em.emit("rx", g.qubits, (canonical,))
                    return
        else:
            if name != "id":
                em.emit(name, g.qubits, g.params)
            return
    if nq == 1:
        _emit_1q(em, g.qubits[0], *(FIXED_EULER.get(name) or lower_1q_zxz(g.matrix)))
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
