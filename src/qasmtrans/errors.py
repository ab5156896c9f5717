"""Exception hierarchy. Every error raised by the package derives from QasmTransError."""


class QasmTransError(Exception):
    """Base class for all qasmtrans errors."""


# --- front end ---

class IllegalCharacter(QasmTransError):
    def __init__(self, char: str, line: int, column: int):
        super().__init__(f"illegal character {char!r} at line {line}, column {column}")
        self.char, self.line, self.column = char, line, column


class QasmSyntaxError(QasmTransError):
    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line, self.msg = line, msg


class UnknownGate(QasmTransError):
    def __init__(self, name: str):
        super().__init__(f"unknown gate {name!r}")
        self.name = name


class ArityMismatch(QasmTransError):
    pass


class UndeclaredRegister(QasmTransError):
    def __init__(self, name: str):
        super().__init__(f"undeclared register {name!r}")
        self.name = name


class UnsupportedStatement(QasmTransError):
    pass


class UnserializableGate(QasmTransError):
    def __init__(self, name: str):
        super().__init__(f"gate {name!r} has no textual form")
        self.name = name


# --- device ---

class SchemaError(QasmTransError):
    def __init__(self, field: str, msg: str = ""):
        super().__init__(f"device schema error at {field}" + (f": {msg}" if msg else ""))
        self.field = field


class Infeasible(QasmTransError):
    pass


# --- circuit analyses ---

class NotInFront(QasmTransError):
    def __init__(self, node: int):
        super().__init__(f"node {node} is not in the front layer")
        self.node = node


class UnsupportedGate(QasmTransError):
    def __init__(self, name: str):
        super().__init__(f"no decomposition rule for gate {name!r}")
        self.name = name


# --- routing ---

class TooManyQubits(QasmTransError):
    pass


class Disconnected(QasmTransError):
    pass


class NotAPermutation(QasmTransError):
    pass


# --- lowering ---

class NoRuleFor(QasmTransError):
    def __init__(self, gate: str, basis: str):
        super().__init__(f"no lowering rule for gate {gate!r} under basis {basis!r}")
        self.gate, self.basis = gate, basis


# --- placement ---

class NoEmbedding(QasmTransError):
    pass


class MissingDuration(QasmTransError):
    def __init__(self, gate: str):
        super().__init__(f"no duration for gate {gate!r}")
        self.gate = gate


# --- partitioning ---

class IsolatedQubit(QasmTransError):
    def __init__(self, qubit: int):
        super().__init__(f"qubit {qubit} has no neighbors")
        self.qubit = qubit


class TooManyQubitsRequested(QasmTransError):
    pass


class GrowthStuck(QasmTransError):
    pass


# --- pulse ---

class MissingTemplate(QasmTransError):
    def __init__(self, gate: str, where):
        super().__init__(f"no pulse template for gate {gate!r} on {where}")
        self.gate, self.where = gate, where


class DidNotConverge(QasmTransError):
    def __init__(self, best_fidelity: float, msg: str = ""):
        super().__init__(f"optimization stalled at F={best_fidelity:.6f}" + (f" ({msg})" if msg else ""))
        self.best_fidelity = best_fidelity


# --- simulation ---

class DimensionMismatch(QasmTransError):
    pass


class StepTooLarge(QasmTransError):
    pass


class InvalidStep(QasmTransError):
    """An integration step that is not a finite positive number."""
