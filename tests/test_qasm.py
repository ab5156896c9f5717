"""Front-end tests: tokenizer, parser, emitter, and round-trip properties."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qasmtrans import gates, ir, oracle, qasm
from qasmtrans.errors import (
    ArityMismatch,
    IllegalCharacter,
    QasmSyntaxError,
    QasmTransError,
    UndeclaredRegister,
    UnknownGate,
    UnserializableGate,
    UnsupportedStatement,
)

from conftest import FIXTURES, FIXTURE_NAMES


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_tokenize_empty():
    assert qasm.tokenize("") == []


def test_tokenize_gate_call():
    toks = qasm.tokenize("cx q[0],q[1];")
    assert [t.text for t in toks] == ["cx", "q", "[", "0", "]", ",", "q", "[", "1", "]", ";"]
    assert [t.kind for t in toks] == ["identifier", "identifier", "symbol", "number",
                                      "symbol", "symbol", "identifier", "symbol",
                                      "number", "symbol", "symbol"]
    assert len(toks) == 11


def test_tokenize_drops_comments():
    toks = qasm.tokenize('OPENQASM 2.0;\n// note\nqreg q[2];')
    assert all(t.line != 2 for t in toks)
    assert "note" not in [t.text for t in toks]


def test_tokenize_positions_monotonic():
    src = 'OPENQASM 2.0;\nqreg q[3];\nh q[0];  // x\ncx q[0],q[1];\n'
    toks = qasm.tokenize(src)
    pos = [(t.line, t.column) for t in toks]
    assert pos == sorted(pos)
    assert all(t.line >= 1 and t.column >= 1 for t in toks)


def test_tokenize_reconstructs_source_modulo_whitespace():
    src = 'qreg q[2]; h q[0] ; // c\ncx q[0],q[1];'
    stripped = "".join(src.split())
    stripped = stripped.replace("//c", "")
    joined = "".join(t.text for t in qasm.tokenize(src))
    assert joined == stripped


def test_tokenize_illegal_character():
    with pytest.raises(IllegalCharacter) as err:
        qasm.tokenize("qreg q[2];\nh q[0]; @")
    assert err.value.line == 2


def test_tokenize_numbers_and_keywords():
    toks = qasm.tokenize("rz(1.5e-3) q[0];")
    kinds = {t.text: t.kind for t in toks}
    assert kinds["1.5e-3"] == "number"
    assert kinds["rz"] == "identifier"
    assert qasm.tokenize("measure")[0].kind == "keyword"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_single_h():
    c = qasm.parse_text("qreg q[1]; h q[0];")
    assert c.num_qubits == 1
    assert [g.name for g in c.gates] == ["h"]
    assert c.gates[0].qubits == (0,)


def test_parse_flattens_registers():
    c = qasm.parse_text("qreg a[2]; qreg b[3]; cx a[1],b[2];")
    assert c.num_qubits == 5
    assert c.gates[0].qubits == (1, 4)


def test_parse_adder_table_values(circuits):
    s = ir.stats(circuits["adder_n4"])
    assert (s.one_qubit_gates, s.total_gates, s.depth) == (17, 27, 12)


def test_parse_accepts_tokens_per_signature():
    toks = qasm.tokenize("qreg q[2]; cz q[0],q[1];")
    c = qasm.parse(toks)
    assert [g.name for g in c.gates] == ["h", "cx", "h"]


def test_parse_whole_register_broadcast_ascending():
    c = qasm.parse_text("qreg q[3]; h q;")
    assert [g.qubits for g in c.gates] == [(0,), (1,), (2,)]


def test_parse_two_register_broadcast():
    c = qasm.parse_text("qreg a[2]; qreg b[2]; cx a,b;")
    assert [g.qubits for g in c.gates] == [(0, 2), (1, 3)]


def test_parse_measure_broadcast_and_single():
    c = qasm.parse_text("qreg q[2]; creg c[2]; h q[0]; measure q -> c;")
    assert c.measurements == [(0, 0), (1, 1)]
    c = qasm.parse_text("qreg q[2]; creg c[2]; measure q[1] -> c[0];")
    assert c.measurements == [(1, 0)]


def test_parse_barrier_is_marker():
    c = qasm.parse_text("qreg q[3]; h q[0]; barrier q; h q[1];")
    assert c.gates[1].is_barrier
    assert c.gates[1].qubits == (0, 1, 2)
    assert c.gates[1].matrix is None


def test_parse_parameter_expressions():
    c = qasm.parse_text("qreg q[1]; rz(pi/2) q[0]; rz(-pi/4 + 1.5*2) q[0]; rz((pi+1)/2) q[0];")
    assert c.gates[0].params[0] == pytest.approx(math.pi / 2)
    assert c.gates[1].params[0] == pytest.approx(-math.pi / 4 + 3.0)
    assert c.gates[2].params[0] == pytest.approx((math.pi + 1) / 2)


def test_parse_composition_gates_expand_to_standard():
    c = qasm.parse_text("qreg q[3]; ccx q[0],q[1],q[2]; swap q[0],q[1];")
    assert all(g.name in gates.STANDARD_GATES for g in c.gates)
    counts = c.gate_counts()
    assert counts["cx"] == 6 + 3


@pytest.mark.parametrize("src,exc", [
    ("qreg q[2]; c4x q[0],q[1];", UnknownGate),
    ("qreg q[2]; foo q[0];", UnknownGate),
    ("qreg q[2]; if (c == 0) h q[0];", UnsupportedStatement),
    ("qreg q[2]; opaque magic a;", UnsupportedStatement),
    ("qreg q[2]; gate mine a { h a; }", UnsupportedStatement),
    ("qreg q[2]; reset q[0];", UnsupportedStatement),
    ("OPENQASM 3.0; qubit q;", UnsupportedStatement),
    ('include "other.inc";', UnsupportedStatement),
    ("qreg q[2]; h q[0],q[1];", ArityMismatch),
    ("qreg q[2]; rz q[0];", ArityMismatch),
    ("qreg q[2]; cx r[0],q[1];", UndeclaredRegister),
    ("qreg q[2]; cx q[0];", ArityMismatch),
    ("qreg q[2]; cx q[0],q[0];", QasmSyntaxError),
    ("qreg q[2]; h q[5];", Exception),
    ("qreg q[2]; h q[0]", QasmSyntaxError),
])
def test_parse_errors(src, exc):
    with pytest.raises(exc):
        qasm.parse_text(src)


def test_parse_rejects_gate_after_measure_on_same_qubit():
    with pytest.raises(QasmSyntaxError):
        qasm.parse_text("qreg q[1]; creg c[1]; measure q[0] -> c[0]; h q[0];")


def test_parsed_matrices_unitary(circuits):
    for name, circ in circuits.items():
        for g in circ.gates:
            if g.is_barrier:
                continue
            u = g.matrix
            err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            assert err < 1e-10, (name, g)


@pytest.mark.parametrize("src", [
    "qreg q[1];\n\nrz(1e999) q[0];",
    "qreg q[1];\n\nrz(-1e999+1e999) q[0];",
    "qreg q[1];\n\nrz(1/0) q[0];",
    "qreg q[1];\n\nu3(0.5, pi/(1-1), 0) q[0];",
])
def test_parse_rejects_non_finite_parameters_with_line(src):
    with pytest.raises(QasmSyntaxError) as err:
        qasm.parse_text(src)
    assert err.value.line == 3


@pytest.mark.parametrize("decl", ["qreg", "creg"])
def test_parse_rejects_register_above_max_size(decl):
    big = qasm.MAX_REGISTER_SIZE + 1
    with pytest.raises(QasmSyntaxError) as err:
        qasm.parse_text(f"qreg q[1];\n{decl} r[{big}];")
    assert err.value.line == 2
    c = qasm.parse_text(f"{decl} r[{qasm.MAX_REGISTER_SIZE}];")
    assert max(c.register_map.total_qubits, c.register_map.total_clbits) == big - 1


@pytest.mark.parametrize("src", ["qreg q[1];\nqreg r[" + "9" * 5000 + "];",
                                 "qreg q[1];\nh q[" + "0" * 5000 + "];"], ids=["size", "index"])
def test_parse_rejects_overlong_integers_with_line(src):
    with pytest.raises(QasmSyntaxError) as err:
        qasm.parse_text(src)
    assert err.value.line == 2


def test_parse_spec_builtins_u_and_cx():
    c = qasm.parse_text("qreg q[2]; U(pi/2, 0, pi) q[0]; CX q[0], q[1];\n"
                        "U(0.1,0.2,0.3) q[1];")
    assert [(g.name, g.qubits) for g in c.gates] == [("u3", (0,)), ("cx", (0, 1)), ("u3", (1,))]
    assert c.gates[0].params == (math.pi / 2, 0.0, math.pi)
    with pytest.raises(ArityMismatch, match="U expects 3 params"):
        qasm.parse_text("qreg q[1]; U(1) q[0];")
    with pytest.raises(UnknownGate):
        qasm.parse_text("qreg q[2]; u q[0];")


def test_parse_text_lexes_only_statements_off_the_fast_path(monkeypatch):
    # header, include, qreg, creg, the measure and the broadcast are lexed;
    # the indexed gate calls in between are not
    src = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'
           "h q[0];\ncx q[0],q[1];  // note\nrz(-0.25) q[2];\nu3(1,2.5e-3,.5) q[1];\n"
           "cz q[1], q[2];\nx q;\nmeasure q[0] -> c[0];\n")
    calls = []
    lex = qasm._lex
    monkeypatch.setattr(qasm, "_lex", lambda *a, **k: calls.append(a[1]) or lex(*a, **k))
    c = qasm.parse_text(src)
    assert len(calls) == 6
    assert len(c.gates) == 4 + 3 + 3 and c.measurements == [(0, 0)]


def test_flattening_prefix_sum_property():
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 6)) for _ in range(k)]
        names = [f"r{i}" for i in range(k)]
        decls = " ".join(f"qreg {n}[{s}];" for n, s in zip(names, sizes))
        j = int(rng.integers(k))
        i = int(rng.integers(sizes[j]))
        c = qasm.parse_text(f"{decls} x {names[j]}[{i}];")
        expect = i + sum(sizes[:j])
        assert c.gates[0].qubits == (expect,)


# ---------------------------------------------------------------------------
# emitter
# ---------------------------------------------------------------------------

def test_emit_single_h():
    c = qasm.parse_text("qreg q[1]; h q[0];")
    out = qasm.emit_qasm(c)
    assert out.count("h q[0];") == 1
    assert out.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";\n')
    assert "\r" not in out


def test_emit_param_precision():
    c = qasm.parse_text("qreg q[1]; rz(0.5) q[0];")
    out = qasm.emit_qasm(c)
    assert "rz(0.5) q[0];" in out
    c2 = qasm.parse_text(f"qreg q[1]; rz({math.pi/7!r}) q[0];")
    reparsed = qasm.parse_text(qasm.emit_qasm(c2))
    assert reparsed.gates[0].params[0] == c2.gates[0].params[0]  # bit-exact


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_roundtrip_fixtures(circuits, name):
    c = circuits[name]
    again = qasm.parse_text(qasm.emit_qasm(c))
    assert again.structurally_equal(c)
    third = qasm.parse_text(qasm.emit_qasm(again))
    assert third.structurally_equal(again)


def test_emit_extension_gates_reparse():
    from qasmtrans.circuit import Circuit
    c = Circuit(2).add("sx", [0]).add("gpi2", [1], (0.25,)).add("iswap", [0, 1])
    again = qasm.parse_text(qasm.emit_qasm(c))
    assert again.structurally_equal(c)


def test_emit_unserializable():
    from qasmtrans.circuit import Circuit, GateIR
    c = Circuit(1)
    g = GateIR.__new__(GateIR)
    g.name, g.qubits, g.params = "mystery", (0,), ()
    c.gates.append(g)
    with pytest.raises(UnserializableGate):
        qasm.emit_qasm(c)


def test_composition_expansion_unitary_equivalence():
    # parse-time expansion matches the defining matrix for 2- and 3-qubit gates
    rng = np.random.default_rng(3)
    for name in sorted(gates.COMPOSITION_GATES):
        nq, npar = gates.GATE_INFO[name]
        if nq > 3:
            continue
        params = tuple(float(x) for x in rng.uniform(-np.pi, np.pi, npar))
        args = ",".join(f"q[{i}]" for i in range(nq))
        pstr = "(" + ",".join(repr(p) for p in params) + ")" if params else ""
        c = qasm.parse_text(f"qreg q[{nq}]; {name}{pstr} {args};")
        u = oracle.circuit_unitary(c)
        dev = oracle.phase_aligned_distance(u, gates.defining_matrix(name, params))
        assert dev < 1e-9, (name, dev)


# ---------------------------------------------------------------------------
# parse_text (statement fast path) against parse(tokenize(...))
# ---------------------------------------------------------------------------

def _outcome(fn, src):
    """The circuit as plain data, or the error as (class, message, line)."""
    try:
        c = fn(src)
    except QasmTransError as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("circuit", c.num_qubits, c.num_clbits, c.register_map.qregs, c.register_map.cregs,
            [(g.name, g.qubits, tuple(map(repr, g.params))) for g in c.gates],
            c.measurements)


def _both_paths(src):
    fast = _outcome(qasm.parse_text, src)
    assert fast == _outcome(lambda s: qasm.parse(qasm.tokenize(s)), src), src
    return fast


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_parse_paths_agree_on_fixtures(name):
    src = (FIXTURES / f"{name}.qasm").read_text()
    assert _both_paths(src)[0] == "circuit"


def _single_statement_mutants():
    for name in sorted(gates.GATE_INFO) + sorted(qasm.BUILTIN_GATES):
        nq, npar = gates.GATE_INFO[qasm.BUILTIN_GATES.get(name, name)]
        ops = ["q[0]", "r[1]", "q[2]", "q[3]"][:nq]
        nums = ["0.5", "-2", "pi/4"][:npar]
        variants = [(nums, ops), (nums + ["1"], ops), (nums[1:], ops), (nums, ops + ["q[1]"]),
                    (nums, ops[1:])]
        if nums:
            variants += [(["1e999"] + nums[1:], ops), (["1/0"] + nums[1:], ops)]
        for k in range(nq):
            for bad in ("q[4]", "r[2]", "zz[0]", "c[0]", "q", ops[k - 1], "q[1]"):
                variants.append((nums, ops[:k] + [bad] + ops[k + 1:]))
        for ps, qs in variants:
            yield f"{name}({','.join(ps)}) {','.join(qs)};" if ps else f"{name} {','.join(qs)};"


def test_parse_paths_agree_on_single_statement_mutants():
    outcomes = set()
    for prefix in ("qreg q[4]; qreg r[2]; creg c[4];\n",
                   "qreg q[4]; qreg r[2]; creg c[4];\nmeasure q[1] -> c[0];\n"):
        for stmt in _single_statement_mutants():
            outcomes.add(_both_paths(prefix + stmt)[:2])
    assert len(outcomes) >= 5   # circuits and several error classes


_GAPS = st.sampled_from(["", " ", " ", "  ", "\t", "\n", "\r\n", " // c;x[0]\n", "\n\n  "])
_GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["pi", "-pi/2", "2*pi", "(pi+1)/3", ".5", "1.", "1.e3", "+0.25", "- 0.5",
                     "--1", "-0", "1e-400", "1E+2", "0007"]),
)
_BAD_NUMBERS = st.sampled_from(["1e999", "-1e999+1e999", "1/0", "1/(2-2)", "3e", "0x1", "1_0",
                                "", "pi pi", "\u0663", "inf", "nan", "1.5.2"])
_GOOD_NAMES = st.sampled_from(sorted(gates.GATE_INFO) + sorted(qasm.BUILTIN_GATES))
_BAD_NAMES = st.sampled_from(["foo", "c4x", "pi", "OPENQASM", "measure", "barrier", "reset",
                              "Cx", "u", "rz2", "\u00e9"])
_OPERANDS = ["q[0]", "q[1]", "q[2]", "q[3]", "r[0]", "r[1]"]
_BAD_OPERANDS = st.sampled_from(["q[4]", "r[2]", "q[4]", "r[2]", "zz[0]", "c[0]", "measure[0]", "q", "r", "q[-1]",
                                 "q[01]", "q[\n1\n]", "q[1.0]", "q[99999999999]"])
_JUNK = st.sampled_from(["@", ";", "h q[0]", "qreg q[2];", "creg d[0];", "qreg s[3]",
                         "cx q[0] q[1];", "if (c==1) x q[0];", 'include "qelib1.inc";',
                         "OPENQASM 2.0;", "rz(0.5)q[2];", "hq[0];", "h q[0]; }", "x q;",
                         "cx q,r;", "barrier q[0], r;", "measure q -> c;", "gate g a { h a; }"])


@st.composite
def _statement(draw):
    """One statement: mostly well formed, sometimes with one mutation."""
    gap = lambda: draw(_GAPS)
    kind = draw(st.sampled_from(["gate"] * 10 + ["mutant"] * 4 + ["measure", "barrier", "junk"]))
    if kind == "junk":
        return draw(_JUNK)
    if kind == "measure":
        return f"measure {draw(st.sampled_from(_OPERANDS))}{gap()}->{gap()}c[{draw(st.integers(0, 3))}];"
    if kind == "barrier":
        return f"barrier {draw(st.sampled_from(_OPERANDS))};"
    mutation = draw(st.sampled_from(["name", "params", "qubits", "number", "operand", "operand",
                                     "repeat", "end"]))
    mutant = kind == "mutant"
    name = draw(_BAD_NAMES if mutant and mutation == "name" else _GOOD_NAMES)
    nq, npar = gates.GATE_INFO.get(qasm.BUILTIN_GATES.get(name, name), (1, 0))
    if mutant and mutation == "params":
        npar = max(0, npar + draw(st.sampled_from([-1, 1])))
    if mutant and mutation == "qubits":
        nq = max(1, nq + draw(st.sampled_from([-1, 1])))
    nums = [draw(_GOOD_NUMBERS) for _ in range(npar)]
    if mutant and mutation == "number" and nums:
        nums[draw(st.integers(0, npar - 1))] = draw(_BAD_NUMBERS)
    ops = list(draw(st.permutations(_OPERANDS)))[:nq]
    if nq > len(ops):
        ops.append(ops[0])
    if mutant and mutation == "operand":
        ops[draw(st.integers(0, nq - 1))] = draw(_BAD_OPERANDS)
    if mutant and mutation == "repeat":
        ops[-1] = ops[0]
    params = "(" + ",".join(gap() + x + gap() for x in nums) + ")" if nums else ""
    args = ",".join(gap() + op + gap() for op in ops)
    end = draw(st.sampled_from(["", " ;", ",;", ";;"])) if mutant and mutation == "end" else ";"
    return f"{name}{gap()}{params}{' ' if not params or draw(st.booleans()) else ''}{args}{end}"


@st.composite
def _program(draw):
    """Declarations plus statements, as (prefix, [statement with its leading gap])."""
    head = draw(st.sampled_from(['OPENQASM 2.0;\ninclude "qelib1.inc";\n'] * 6 +
                                ["", "OPENQASM 3.0;", "// header\nOPENQASM 2.0 ;"]))
    decls = "qreg q[4]; qreg r[2];" + draw(st.sampled_from([" creg c[4];", " creg c[2];", ""]))
    body = draw(st.lists(_statement(), min_size=1, max_size=12))
    return head + decls, [draw(_GAPS) + s for s in body]


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_program())
def test_parse_paths_agree_on_generated_programs(program):
    # the whole program, and each statement on its own, so that an early
    # error does not hide the statements after it
    prefix, body = program
    _both_paths(prefix + "".join(body))
    for stmt in body:
        _both_paths(prefix + stmt)
