"""Core circuit representation: GateIR, RegisterMap, Circuit.

A Circuit is an ordered gate list over a flattened qubit index range.
Measurements are terminal and kept separately as (qubit -> clbit) pairs.
Barriers travel in the gate list as matrix-less scheduling markers.

A gate is checked once, when it first enters a compile: `GateIR(...)`
rejects duplicate qubits, unknown names and wrong arities, and converts
every parameter with `float()`. `GateIR.trusted(...)` skips all of that. It
is for passes that build a gate from parts they have already checked or
taken from a checked gate: the parser's fast path, the router's output and
lowering's emitter. Anything else (user code, `Circuit.add`, expansions of
composition gates) goes through the checked constructor.
"""
from __future__ import annotations

import numpy as np

from . import gates
from .errors import ArityMismatch, QasmTransError, UnknownGate

BARRIER = "barrier"


class GateIR:
    """One quantum operation: name, flattened qubit indices, parameters, matrix.

    Building a gate costs no matrix work: the matrix is built through
    `gates.matrix` (cached per (name, params)) on first read, then kept as
    one read-only complex array. Barriers carry no matrix.

    The constructor checks its arguments; `trusted` does not (see the module
    docstring), so its caller guarantees what the constructor would check:
    a tuple of distinct Python ints, a name in `gates.GATE_INFO` (or
    "barrier") with that many qubits, and a tuple of Python floats of the
    name's parameter count.
    """

    __slots__ = ("name", "qubits", "params", "_matrix")

    def __init__(self, name: str, qubits, params=()):
        self.name = name
        self.qubits = tuple(qubits)
        self.params = tuple(map(float, params))
        self._matrix = None
        if len(set(self.qubits)) != len(self.qubits):
            raise ArityMismatch(f"{name}: duplicate qubit in {self.qubits}")
        if name == BARRIER:
            return
        info = gates.GATE_INFO.get(name)
        if info is None:
            raise UnknownGate(name)
        nq, npar = info
        if nq != len(self.qubits):
            raise ArityMismatch(f"{name} expects {nq} qubits, got {len(self.qubits)}")
        if npar != len(self.params):
            raise ArityMismatch(f"{name} expects {npar} params, got {len(self.params)}")

    @property
    def matrix(self) -> np.ndarray | None:
        if self._matrix is None and self.name != BARRIER:
            self._matrix = gates.matrix(self.name, self.params)
            self._matrix.setflags(write=False)
        return self._matrix

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_barrier(self) -> bool:
        return self.name == BARRIER

    @staticmethod
    def trusted(name: str, qubits: tuple, params: tuple = (), matrix=None) -> "GateIR":
        """A gate built without checks, for callers that hold the contract in
        the class docstring; `matrix` is the gate's matrix when known."""
        g = object.__new__(GateIR)
        g.name = name
        g.qubits = qubits
        g.params = params
        g._matrix = matrix
        return g

    def remapped(self, perm) -> "GateIR":
        """Copy with qubit indices mapped through perm (index -> new index)."""
        return GateIR.trusted(self.name, tuple(perm[q] for q in self.qubits),
                              self.params, self._matrix)

    def __repr__(self):
        p = "(" + ",".join(f"{x:g}" for x in self.params) + ")" if self.params else ""
        return f"GateIR({self.name}{p} @ {self.qubits})"

    def __eq__(self, other):
        return (
            isinstance(other, GateIR)
            and self.name == other.name
            and self.qubits == other.qubits
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.name, self.qubits, self.params))


class RegisterMap:
    """Declared registers flattened to contiguous index ranges by prefix sums."""

    def __init__(self):
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.total_qubits = 0
        self.total_clbits = 0

    def add_qreg(self, name: str, size: int):
        if name in self.qregs or name in self.cregs:
            raise QasmTransError(f"register {name!r} redeclared")
        self.qregs[name] = (self.total_qubits, size)
        self.total_qubits += size

    def add_creg(self, name: str, size: int):
        if name in self.qregs or name in self.cregs:
            raise QasmTransError(f"register {name!r} redeclared")
        self.cregs[name] = (self.total_clbits, size)
        self.total_clbits += size

    def qubit_index(self, name: str, i: int) -> int:
        off, size = self.qregs[name]
        if not 0 <= i < size:
            raise QasmTransError(f"index {i} out of range for qreg {name}[{size}]")
        return off + i

    def clbit_index(self, name: str, i: int) -> int:
        off, size = self.cregs[name]
        if not 0 <= i < size:
            raise QasmTransError(f"index {i} out of range for creg {name}[{size}]")
        return off + i

    @classmethod
    def flat(cls, num_qubits: int, num_clbits: int = 0) -> "RegisterMap":
        rm = cls()
        rm.add_qreg("q", num_qubits)
        if num_clbits:
            rm.add_creg("c", num_clbits)
        return rm


class Circuit:
    """Ordered gates over flattened qubits, plus terminal measurements."""

    def __init__(self, num_qubits: int, gates_=None, measurements=None,
                 register_map: RegisterMap | None = None, source_name: str = ""):
        self.num_qubits = num_qubits
        self.gates: list[GateIR] = list(gates_ or [])
        self.measurements: list[tuple[int, int]] = list(measurements or [])
        self.register_map = register_map or RegisterMap.flat(num_qubits, self.num_clbits_used())
        self.source_name = source_name

    def num_clbits_used(self) -> int:
        return 1 + max((c for _, c in self.measurements), default=-1)

    @property
    def num_clbits(self) -> int:
        return max(self.register_map.total_clbits, self.num_clbits_used())

    def add(self, name: str, qubits, params=()) -> "Circuit":
        self.gates.append(GateIR(name, qubits, params))
        return self

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        self.measurements.append((qubit, clbit))
        return self

    def copy(self) -> "Circuit":
        c = Circuit(self.num_qubits, list(self.gates), list(self.measurements),
                    self.register_map, self.source_name)
        return c

    def without_measurements(self) -> "Circuit":
        return Circuit(self.num_qubits, list(self.gates), [], self.register_map, self.source_name)

    def remapped(self, perm, num_qubits: int | None = None) -> "Circuit":
        """Copy with gates and measurements mapped through perm (index -> new
        index) onto num_qubits qubits (default: unchanged). The register map
        is kept at the same width and rebuilt flat at a new one."""
        n = self.num_qubits if num_qubits is None else num_qubits
        return Circuit(n, [g.remapped(perm) for g in self.gates],
                       [(perm[q], c) for q, c in self.measurements],
                       self.register_map if n == self.num_qubits else None, self.source_name)

    def gate_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates:
            out[g.name] = out.get(g.name, 0) + 1
        return out

    def structurally_equal(self, other: "Circuit", param_tol: float = 1e-12) -> bool:
        """Gate-for-gate identity: names, qubit indices, params within tol."""
        if self.num_qubits != other.num_qubits:
            return False
        if len(self.gates) != len(other.gates):
            return False
        if self.measurements != other.measurements:
            return False
        for a, b in zip(self.gates, other.gates):
            if a.name != b.name or a.qubits != b.qubits or len(a.params) != len(b.params):
                return False
            if any(abs(x - y) > param_tol for x, y in zip(a.params, b.params)):
                return False
        return True

    def __len__(self):
        return len(self.gates)

    def __repr__(self):
        return (f"Circuit({self.source_name or 'unnamed'}: {self.num_qubits} qubits, "
                f"{len(self.gates)} gates, {len(self.measurements)} measurements)")
