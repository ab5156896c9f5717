"""OpenQASM 2.0 front end: tokenizer, parser, and emitter.

The parser targets the static qelib1 vocabulary (see gates.GATE_INFO) plus
the spec built-ins `U(theta,phi,lambda)` and `CX`, read as `u3` and `cx`.
Composition gates are expanded inline to their standard-gate definitions,
so a parsed circuit contains only basic/standard (and extension) gates.
`include "qelib1.inc"` is recognized and satisfied internally; nothing is
read from the filesystem. Classical control (`if`), `opaque`, custom
`gate` bodies, and `reset` are rejected as unsupported statements.

The `OPENQASM 2.0;` header is required in files but tolerated as missing
so that inline snippets parse; any version other than 2.0 is rejected.
Parameters must evaluate to finite numbers (division by zero included),
and a register may hold at most MAX_REGISTER_SIZE bits; both are reported
as QasmSyntaxError with the line.

There is one grammar, over the tokens of `tokenize`. `parse_text` reads the
text statement by statement: a statement of the dominant shape
`name[(numbers)] reg[i][, reg[j]];` is matched by one regex and applied if
it passes every check the grammar makes; any other statement, or one that
fails a check, is lexed and parsed by the grammar from the same position.
So `parse_text(s)` and `parse(tokenize(s))` give the same circuit, or the
same error with the same message and line, and a line number is worked out
only for statements the grammar reads.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import gates
from .circuit import BARRIER, Circuit, GateIR, RegisterMap
from .errors import (
    ArityMismatch,
    IllegalCharacter,
    QasmSyntaxError,
    QasmTransError,
    UndeclaredRegister,
    UnknownGate,
    UnserializableGate,
    UnsupportedStatement,
)

KEYWORDS = frozenset(
    ["OPENQASM", "include", "qreg", "creg", "gate", "barrier",
     "measure", "reset", "if", "opaque"]
)

# spec built-in gates and the qelib1 gates they are read as
BUILTIN_GATES = {"U": "u3", "CX": "cx"}

# Largest qreg/creg size accepted; a larger declaration is a syntax error
# raised before anything is allocated for it.
MAX_REGISTER_SIZE = 1 << 16

_TOKEN_RE = re.compile(
    r"""(?P<comment>//[^\n]*)
      | (?P<ws>[\ \t\r]+)
      | (?P<nl>\n)
      | (?P<string>"[^"\n]*")
      | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<symbol>->|==|[\[\](){};,+\-*/^])
    """,
    re.VERBOSE,
)

# Whitespace and comments between statements, as _TOKEN_RE skips them.
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*)*"
_SKIP_RE = re.compile(_SKIP)

# The dominant statement shape, `name[(numbers)] reg[i][, reg[j]];`, and the
# whitespace and comments after it. Every text it matches lexes to the same
# tokens under _TOKEN_RE; the name may not run on into the register, and
# signed literals evaluate as the grammar's unary minus/plus does.
_W = r"[ \t\r\n]*"
_NUM = r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_OPERAND = rf"({_ID}){_W}\[{_W}([0-9]{{1,9}}){_W}\]"
_GATE_STMT_RE = re.compile(
    rf"({_ID})(?![A-Za-z0-9_]){_W}"
    rf"(?:\(({_W}{_NUM}{_W}(?:,{_W}{_NUM}{_W})*)\){_W})?"
    rf"({_OPERAND}(?:{_W},{_W}{_OPERAND})?){_W};{_SKIP}"
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # keyword | identifier | number | symbol | string
    text: str
    line: int
    column: int


def _lex(source: str, pos: int = 0, line: int = 1,
         one_statement: bool = False) -> tuple[list[Token], int]:
    """Tokens of `source` from offset `pos` (on line `line`) to the end, or
    through the first ';' with `one_statement`; also the offset reached."""
    tokens: list[Token] = []
    line_start = source.rfind("\n", 0, pos) + 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise IllegalCharacter(source[pos], line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            text = m.group()
            if kind == "ident" and text in KEYWORDS:
                kind = "keyword"
            elif kind == "ident":
                kind = "identifier"
            tokens.append(Token(kind, text, line, pos - line_start + 1))
            if one_statement and text == ";":
                return tokens, m.end()
        pos = m.end()
    return tokens, pos


def _integer(tok: Token) -> int:
    """The value of a digit token. int() refuses over 4300 digits, and a
    value that long is out of any register's range, so it is an error."""
    if len(tok.text) > 100:
        raise QasmSyntaxError(tok.line, "integer has more than 100 digits")
    return int(tok.text)


def tokenize(source: str) -> list[Token]:
    """Lex QASM text into tokens; comments are dropped, positions are 1-based."""
    return _lex(source)[0]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens=(), source_name: str = ""):
        self.toks = list(tokens)
        self.i = 0
        self.rm = RegisterMap()
        self.gates: list[GateIR] = []
        self.measurements: list[tuple[int, int]] = []
        self.measured: set[int] = set()
        self.operands: dict[str, tuple] = {}      # fast-path operand text -> qubits
        self.source_name = source_name

    # --- token helpers ---

    def _peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            last = self.toks[-1].line if self.toks else 1
            raise QasmSyntaxError(last, "unexpected end of input")
        self.i += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._next()
        if tok.text != text:
            raise QasmSyntaxError(tok.line, f"expected {text!r}, got {tok.text!r}")
        return tok

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.text == text

    # --- whole inputs ---

    def parse(self) -> Circuit:
        """Read the token list as a whole program."""
        self._header()
        while self._peek() is not None:
            self._statement()
        return self._circuit()

    def parse_source(self, source: str) -> Circuit:
        """Read QASM text statement by statement (see the module docstring)."""
        skip, fast = _SKIP_RE.match, _GATE_STMT_RE.match
        line, line_pos = 1, 0          # `line` is the line number at offset `line_pos`
        pos, n = skip(source).end(), len(source)
        first = True                   # only the first statement may be the header
        while pos < n:
            if not first:
                m = fast(source, pos)
                if m is not None and self._fast_gate(*m.groups()):
                    pos = m.end()
                    continue
            line += source.count("\n", line_pos, pos)
            line_pos = pos
            self.toks, end = _lex(source, pos, line, one_statement=True)
            self.i = 0
            try:
                if not (first and self._header()):
                    self._statement()
            except QasmTransError:
                # the whole-text lexer reports an illegal character anywhere
                # in the text before any parse error
                _lex(source, end, line + source.count("\n", pos, end))
                raise
            first = False
            pos = skip(source, end).end()
        return self._circuit()

    def _circuit(self) -> Circuit:
        return Circuit(self.rm.total_qubits, self.gates, self.measurements,
                       self.rm, self.source_name)

    # --- grammar ---

    def _header(self) -> bool:
        if not self._at("OPENQASM"):
            return False
        self._next()
        ver = self._next()
        if ver.text != "2.0":
            raise UnsupportedStatement(f"OPENQASM version {ver.text} (only 2.0)")
        self._expect(";")
        return True

    def _statement(self):
        tok = self._peek()
        text = tok.text
        if text == "include":
            self._next()
            fname = self._next()
            if fname.kind != "string":
                raise QasmSyntaxError(fname.line, "include expects a string")
            if fname.text.strip('"') != "qelib1.inc":
                raise UnsupportedStatement(f"unknown include {fname.text}")
            self._expect(";")
        elif text in ("qreg", "creg"):
            self._next()
            name = self._next()
            if name.kind != "identifier":
                raise QasmSyntaxError(name.line, f"bad register name {name.text!r}")
            self._expect("[")
            size = self._next()
            if size.kind != "number" or not size.text.isdigit():
                raise QasmSyntaxError(size.line, "register size must be a positive integer")
            self._expect("]")
            self._expect(";")
            nbits = _integer(size)
            if nbits < 1:
                raise QasmSyntaxError(size.line, "register size must be >= 1")
            if nbits > MAX_REGISTER_SIZE:
                raise QasmSyntaxError(size.line, f"register size must be <= {MAX_REGISTER_SIZE}")
            if text == "qreg":
                self.rm.add_qreg(name.text, nbits)
            else:
                self.rm.add_creg(name.text, nbits)
        elif text in ("if", "opaque", "gate", "reset"):
            raise UnsupportedStatement(f"line {tok.line}: {text!r} statements are not supported")
        elif text == "barrier":
            self._next()
            qubits: list[int] = []
            while True:
                qubits.extend(self._qubit_operand())
                if self._at(","):
                    self._next()
                else:
                    break
            self._expect(";")
            self.gates.append(GateIR(BARRIER, qubits))
        elif text == "measure":
            self._measure(tok.line)
        elif tok.kind in ("identifier", "keyword"):
            self._gate_call(tok)
        else:
            raise QasmSyntaxError(tok.line, f"unexpected token {text!r}")

    def _measure(self, line: int):
        self._next()
        qreg, qidx = self._operand_ref()
        self._expect("->")
        creg, cidx = self._operand_ref(classical=True)
        self._expect(";")
        if qidx is None and cidx is None:
            qoff, qsize = self.rm.qregs[qreg]
            coff, csize = self.rm.cregs[creg]
            if qsize != csize:
                raise QasmSyntaxError(line, "measure register sizes differ")
            pairs = [(qoff + k, coff + k) for k in range(qsize)]
        elif qidx is not None and cidx is not None:
            pairs = [(self.rm.qubit_index(qreg, qidx), self.rm.clbit_index(creg, cidx))]
        else:
            raise QasmSyntaxError(line, "measure operands must both be indexed or both whole registers")
        for q, c in pairs:
            if any(c == c0 for _, c0 in self.measurements):
                raise QasmSyntaxError(line, f"classical bit {c} measured twice")
            self.measurements.append((q, c))
            self.measured.add(q)

    def _operand_ref(self, classical: bool = False):
        name = self._next()
        if name.kind != "identifier":
            raise QasmSyntaxError(name.line, f"expected register name, got {name.text!r}")
        regs = self.rm.cregs if classical else self.rm.qregs
        if name.text not in regs:
            raise UndeclaredRegister(name.text)
        if self._at("["):
            self._next()
            idx = self._next()
            if idx.kind != "number" or not idx.text.isdigit():
                raise QasmSyntaxError(idx.line, "register index must be an integer")
            self._expect("]")
            return name.text, _integer(idx)
        return name.text, None

    def _qubit_operand(self) -> list[int]:
        """One operand as a list of flattened indices (len>1 means whole register)."""
        name, idx = self._operand_ref()
        off, size = self.rm.qregs[name]
        if idx is None:
            return [off + k for k in range(size)]
        return [self.rm.qubit_index(name, idx)]

    def _gate_call(self, tok: Token):
        name = self._next().text
        gate = BUILTIN_GATES.get(name, name)
        if gate not in gates.GATE_INFO:
            raise UnknownGate(name)
        nq, npar = gates.GATE_INFO[gate]
        params: tuple = ()
        if self._at("("):
            self._next()
            vals = []
            if not self._at(")"):
                vals.append(self._expression())
                while self._at(","):
                    self._next()
                    vals.append(self._expression())
            self._expect(")")
            params = tuple(vals)
        for v in params:
            if not math.isfinite(v):
                raise QasmSyntaxError(tok.line, f"{name}: parameter {v!r} is not a finite number")
        if len(params) != npar:
            raise ArityMismatch(f"line {tok.line}: {name} expects {npar} params, got {len(params)}")
        operands: list[list[int]] = []
        while True:
            operands.append(self._qubit_operand())
            if self._at(","):
                self._next()
            else:
                break
        self._expect(";")
        if len(operands) != nq:
            raise ArityMismatch(f"line {tok.line}: {name} expects {nq} qubits, got {len(operands)}")
        span = max(len(op) for op in operands)
        for op in operands:
            if len(op) not in (1, span):
                raise QasmSyntaxError(tok.line, "broadcast register sizes differ")
        for j in range(span):
            qubits = tuple(op[j] if len(op) > 1 else op[0] for op in operands)
            if len(set(qubits)) != len(qubits):
                raise QasmSyntaxError(tok.line, f"{name}: repeated qubit operand")
            for q in qubits:
                if q in self.measured:
                    raise QasmSyntaxError(tok.line, f"gate on already-measured qubit {q}")
            self._emit(gate, params, qubits)

    def _fast_gate(self, name, ptext, optext, r0, i0, r1, i1) -> bool:
        """Apply one `_GATE_STMT_RE` match if it passes every check of
        `_gate_call`; on False nothing has changed and the grammar reads it.
        Operand text is resolved to qubits once per distinct text: registers
        never change once declared."""
        gate = BUILTIN_GATES.get(name, name)
        info = gates.GATE_INFO.get(gate)
        if info is None:
            return False
        nq, npar = info
        params = tuple(map(float, ptext.split(","))) if ptext is not None else ()
        if len(params) != npar or not all(map(math.isfinite, params)):
            return False
        qubits = self.operands.get(optext)
        if qubits is None:
            qregs = self.rm.qregs
            reg = qregs.get(r0)
            if reg is None or int(i0) >= reg[1]:
                return False
            if r1 is None:
                qubits = (reg[0] + int(i0),)
            else:
                reg1 = qregs.get(r1)
                if reg1 is None or int(i1) >= reg1[1]:
                    return False
                qubits = (reg[0] + int(i0), reg1[0] + int(i1))
                if qubits[0] == qubits[1]:
                    return False
            self.operands[optext] = qubits
        if len(qubits) != nq or not self.measured.isdisjoint(qubits):
            return False
        if gate in gates.COMPOSITION_GATES:
            self._emit(gate, params, qubits)
        else:
            # every check the constructor makes has just been made
            self.gates.append(GateIR.trusted(gate, qubits, params))
        return True

    def _emit(self, name: str, params: tuple, qubits: tuple):
        if name in gates.COMPOSITION_GATES:
            for child, cparams, cqubits in gates.expand(name, params, qubits):
                self._emit(child, cparams, cqubits)
        else:
            self.gates.append(GateIR(name, qubits, params))

    # --- parameter expressions: pi, literals, + - * /, unary minus, parens ---

    def _expression(self) -> float:
        val = self._term()
        while self._at("+") or self._at("-"):
            op = self._next().text
            rhs = self._term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def _term(self) -> float:
        val = self._unary()
        while self._at("*") or self._at("/"):
            op = self._next()
            rhs = self._unary()
            if op.text == "*":
                val = val * rhs
            elif rhs == 0:
                raise QasmSyntaxError(op.line, "division by zero")
            else:
                val = val / rhs
        return val

    def _unary(self) -> float:
        if self._at("-"):
            self._next()
            return -self._unary()
        if self._at("+"):
            self._next()
            return self._unary()
        return self._atom()

    def _atom(self) -> float:
        tok = self._next()
        if tok.kind == "number":
            return float(tok.text)
        if tok.text == "pi":
            return math.pi
        if tok.text == "(":
            val = self._expression()
            self._expect(")")
            return val
        raise QasmSyntaxError(tok.line, f"bad expression token {tok.text!r}")


def parse(tokens) -> Circuit:
    """Parse a token list (or raw QASM text) into a Circuit."""
    if isinstance(tokens, str):
        tokens = tokenize(tokens)
    return _Parser(tokens).parse()


def parse_text(source: str, name: str = "") -> Circuit:
    """Parse QASM text; the same circuit or error as `parse(tokenize(source))`."""
    return _Parser(source_name=name).parse_source(source)


def parse_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), name=str(path))


# ---------------------------------------------------------------------------
# emitter
# ---------------------------------------------------------------------------

def emit_qasm(circuit: Circuit) -> str:
    """Serialize to OpenQASM 2.0 with a single flattened qreg/creg.

    Parameters are printed with repr(), which round-trips doubles exactly.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    nclbits = circuit.num_clbits
    if nclbits > 0:
        lines.append(f"creg c[{nclbits}];")
    gate_info = gates.GATE_INFO
    arg_text: dict[tuple, str] = {}        # qubit tuple -> "q[a],q[b]"
    for g in circuit.gates:
        name, qubits = g.name, g.qubits
        args = arg_text.get(qubits)
        if args is None:
            args = arg_text[qubits] = ",".join(f"q[{q}]" for q in qubits)
        if name == BARRIER:
            lines.append(f"barrier {args};")
        elif name not in gate_info:
            raise UnserializableGate(name)
        elif g.params:
            pstr = ",".join(map(repr, g.params))
            lines.append(f"{name}({pstr}) {args};")
        else:
            lines.append(f"{name} {args};")
    for q, c in circuit.measurements:
        lines.append(f"measure q[{q}] -> c[{c}];")
    return "\n".join(lines) + "\n"
