"""End-to-end CLI tests: pipeline runs, exit codes, artifacts, determinism,
and the imports a fresh interpreter makes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qasmtrans
from qasmtrans import cli, devicelib, load_device, lowering, oracle, qasm, route
from qasmtrans.circuit import Circuit
from qasmtrans.errors import NoRuleFor, SchemaError

from conftest import FIXTURES


@pytest.fixture(scope="module")
def toronto_json(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("dev") / "toronto.json"
    p.write_text(devicelib.toronto27(jitter_seed=11).to_json())
    return str(p)


@pytest.fixture(scope="module")
def line5_json(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("dev") / "line5.json"
    p.write_text(devicelib.line(5).to_json())
    return str(p)


def _run(argv):
    return cli.main(argv)


def test_smoke_transpile(tmp_path, toronto_json):
    out = tmp_path / "out.qasm"
    rc = _run(["-i", str(FIXTURES / "bell.qasm"), "-d", toronto_json,
               "-b", "ibmq", "-o", str(out)])
    assert rc == 0
    circ = qasm.parse_file(out)
    dev = load_device(toronto_json)
    for g in circ.gates:
        if g.num_qubits == 2:
            assert dev.coupling.has_edge(*g.qubits)
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    assert summary["version"] == "qasmtrans-summary/1"
    assert summary["swaps_inserted"] >= 0
    assert all(v >= 0 for v in summary["timings_ms"].values())


def test_stats_mode_reports_table_values(capsys):
    rc = _run(["-i", str(FIXTURES / "adder_n4.qasm"), "--stats"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "depth: 12" in text
    assert "gates_total: 27" in text
    assert "gates_1q: 17" in text


def test_summary_stats_before_after(tmp_path, toronto_json):
    out = tmp_path / "o.qasm"
    rc = _run(["-i", str(FIXTURES / "adder_n4.qasm"), "-d", toronto_json,
               "-b", "ibmq", "-o", str(out)])
    assert rc == 0
    s = json.loads(Path(str(out) + ".summary.json").read_text())
    assert s["stats_before"]["depth"] == 12
    assert s["stats_before"]["gates_total"] == 27
    assert s["stats_after"]["gates_total"] >= s["stats_before"]["gates_total"] - 4


def test_verify_flag_checks_equivalence(tmp_path, line5_json):
    out = tmp_path / "v.qasm"
    rc = _run(["-i", str(FIXTURES / "qec_n5.qasm"), "-d", line5_json,
               "-b", "rigetti", "-o", str(out), "--verify"])
    assert rc == 0
    s = json.loads(Path(str(out) + ".summary.json").read_text())
    assert s["verified"] is True


def test_noise_adaptive_records_score(tmp_path, toronto_json):
    out = tmp_path / "na.qasm"
    rc = _run(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", toronto_json,
               "-b", "ibmq", "-o", str(out), "--noise-adaptive"])
    assert rc == 0
    s = json.loads(Path(str(out) + ".summary.json").read_text())
    assert 0.0 <= s["placement_score"] <= 1.0


def test_constrained_routing_flag(tmp_path, toronto_json):
    out = tmp_path / "ck.qasm"
    rc = _run(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", toronto_json,
               "-b", "ibmq", "-o", str(out), "--constrain-k", "6"])
    assert rc == 0
    circ = qasm.parse_file(out)
    used = {q for g in circ.gates for q in g.qubits}
    assert len(used) <= 6


def _on_coupling_graph(path, dev_json) -> bool:
    dev = load_device(dev_json)
    pairs = [g.qubits for g in qasm.parse_file(path).gates if g.num_qubits == 2]
    return bool(pairs) and all(dev.coupling.has_edge(*q) for q in pairs)


def test_priority_flag(tmp_path, line5_json):
    out = tmp_path / "pr.qasm"
    rc = _run(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json,
               "-b", "ibmq", "-o", str(out), "--priority", "4,3,2,1,0"])
    assert rc == 0
    assert _on_coupling_graph(out, line5_json)


def test_priority_stays_on_coupling_graph(tmp_path, line5_json):
    # the priority used to relabel qubits after lowering, which put cx gates
    # off the coupling graph, and --verify was skipped
    out = tmp_path / "prv.qasm"
    rc = _run(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", line5_json, "-b", "ibmq",
               "-o", str(out), "--priority", "4,2,0,1,3", "--verify"])
    assert rc == 0
    assert _on_coupling_graph(out, line5_json)
    s = json.loads(Path(str(out) + ".summary.json").read_text())
    assert s["verified"] is True
    assert s["initial_layout"] == [4, 2, 0, 1, 3]


@pytest.mark.parametrize("flags", [["--noise-adaptive"], ["--refine-layout"],
                                   ["--constrain-k", "5"]],
                         ids=["noise-adaptive", "refine-layout", "constrain-k"])
def test_priority_conflicts_are_usage_errors(tmp_path, line5_json, capsys, flags):
    out = tmp_path / "pc.qasm"
    with pytest.raises(SystemExit) as exc:
        _run(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-o", str(out),
              "--priority", "0,1,2,3,4", *flags])
    assert exc.value.code == 2
    assert f"--priority cannot be combined with {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--priority", "1,a"], ["--priority", "0,1"],
                                   ["--priority", "0,0,1,2,3"],
                                   ["--placement-limit", "0", "--noise-adaptive"],
                                   ["--placement-limit", "-5", "--noise-adaptive"]],
                         ids=["priority-not-int", "priority-short", "priority-repeat",
                              "limit-zero", "limit-negative"])
def test_bad_priority_or_limit_is_usage_error(tmp_path, line5_json, capsys, flags):
    # these used to end in a traceback (exit 1) or an invariant breach (exit 4)
    out = tmp_path / "bp.qasm"
    try:
        code = _run(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-o", str(out),
                     *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flags[0] in errors[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--verify"], ["--pulse", "PULSE"], ["--constrain-k", "3"],
                                   ["--noise-adaptive"], ["--seed", "3"], ["-b", "ibmq"]],
                         ids=["verify", "pulse", "constrain-k", "noise-adaptive", "seed",
                              "backend"])
def test_compile_only_flags_need_a_device(tmp_path, capsys, flags):
    # without -d these used to be ignored, with exit 0
    flags = [str(tmp_path / "p.json") if f == "PULSE" else f for f in flags]
    with pytest.raises(SystemExit) as exc:
        _run(["-i", str(FIXTURES / "bell.qasm"), "-o", str(tmp_path / "nd.qasm"), *flags])
    assert exc.value.code == 2
    assert "needs a device (-d)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compile_flags_at_their_defaults_need_no_device(tmp_path):
    assert _run(["-i", str(FIXTURES / "bell.qasm"), "-o", str(tmp_path / "d.qasm"),
                 "--seed", "0", "--placement-limit", "10000", "--stats"]) == 0


def test_space_share_cli(tmp_path, line5_json, toronto_json):
    out = tmp_path / "ss.qasm"
    rc = _run(["--space-share", str(FIXTURES / "bell.qasm"), str(FIXTURES / "bell.qasm"),
               "-d", toronto_json, "-b", "ibmq", "-o", str(out)])
    assert rc == 0
    regions = json.loads(Path(str(out) + ".regions.json").read_text())
    assert len(regions) == 2
    q0, q1 = set(regions[0]["qubits"]), set(regions[1]["qubits"])
    assert q0.isdisjoint(q1)
    merged = qasm.parse_file(out)
    assert merged.num_qubits == 27


@pytest.mark.parametrize("flags", [["--pulse", "PULSE"], ["--verify"],
                                   ["--priority", ",".join(map(str, range(27)))],
                                   ["--constrain-k", "10"]],
                         ids=["pulse", "verify", "priority", "constrain-k"])
def test_space_share_rejects_compile_only_flags(tmp_path, toronto_json, capsys, flags):
    # these flags used to be ignored by --space-share, with exit 0
    out = tmp_path / "ssr.qasm"
    flags = [str(tmp_path / "p.json") if f == "PULSE" else f for f in flags]
    bell = str(FIXTURES / "bell.qasm")
    with pytest.raises(SystemExit) as exc:
        _run(["--space-share", bell, bell, "-d", toronto_json, "-o", str(out), *flags])
    assert exc.value.code == 2
    assert f"--space-share cannot be combined with {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_pulse_emission_cli(tmp_path):
    dev_path = tmp_path / "chain.json"
    dev_path.write_text(devicelib.line(7, basis="rigetti_pulse").to_json())
    out = tmp_path / "p.qasm"
    pulse_out = tmp_path / "p.pulse.json"
    rc = _run(["-i", str(FIXTURES / "bell.qasm"), "-d", str(dev_path),
               "-b", "rigetti_pulse", "-o", str(out), "--pulse", str(pulse_out)])
    assert rc == 0
    doc = json.loads(pulse_out.read_text())
    assert doc["version"] == "qasmtrans-pulse/1"
    assert len(doc["events"]) > 0


def test_byte_identical_artifacts(tmp_path, toronto_json):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.qasm"
        rc = _run(["-i", str(FIXTURES / "qec_n5.qasm"), "-d", toronto_json,
                   "-b", "ibmq", "-o", str(out), "--seed", "5"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[2]; frobnicate q[0];")
    assert _run(["-i", str(bad), "--stats"]) == 1
    assert _run(["-i", str(tmp_path / "missing.qasm"), "--stats"]) == 1


def test_spec_builtins_transpile(tmp_path, line5_json):
    src = tmp_path / "builtins.qasm"
    src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                   "U(pi/2,0,pi) q[0];\nCX q[0],q[1];\n")
    out = tmp_path / "out.qasm"
    assert _run(["-i", str(src), "-d", line5_json, "-b", "ibmq", "-o", str(out),
                 "--verify"]) == 0
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    assert summary["verified"] is True
    assert qasm.parse_file(out).gate_counts()["cx"] == 1


def test_bad_parameter_is_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[1];\nrz(1/0) q[0];\n")
    assert _run(["-i", str(bad), "--stats"]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: division by zero\n"


def test_exit_code_device_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_qubits": 2}')
    assert _run(["-i", str(FIXTURES / "bell.qasm"), "-d", str(bad)]) == 2


def test_exit_code_routing_infeasible(tmp_path):
    dev = tmp_path / "tiny.json"
    dev.write_text(devicelib.line(2).to_json())
    rc = _run(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", str(dev), "-b", "ibmq",
               "-o", str(tmp_path / "x.qasm")])
    assert rc == 3


def test_verify_subcommand(capsys):
    rc = _run(["verify", str(FIXTURES / "bell.qasm"), str(FIXTURES / "bell.qasm")])
    assert rc == 0
    assert "equivalent" in capsys.readouterr().out


def test_verify_subcommand_detects_difference(tmp_path, capsys):
    other = tmp_path / "x.qasm"
    other.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[0];\n')
    rc = _run(["verify", str(FIXTURES / "bell.qasm"), str(other)])
    assert rc == 1


@pytest.mark.parametrize("perm, code", [("1,a", 2), ("0,0", 2)], ids=["not-int", "repeat"])
def test_verify_bad_perm_is_one_error_line(capsys, perm, code):
    # "1,a" used to end in a ValueError traceback; "0,0" was turned into a
    # non-unitary "permutation" matrix
    bell = str(FIXTURES / "bell.qasm")
    try:
        rc = _run(["verify", bell, bell, "--perm", perm])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1


@pytest.mark.parametrize("extra, message", [
    (["--perm", "0,1,2"], "layout is not a permutation of 0..1"),
    ([], "qubit counts differ"),
], ids=["perm-too-long", "widths-differ"])
def test_verify_usage_errors_exit_2(tmp_path, capsys, extra, message):
    bell = str(FIXTURES / "bell.qasm")
    other = bell
    if not extra:
        other = tmp_path / "three.qasm"
        other.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\n')
    assert _run(["verify", bell, str(other)] + extra) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"error: {message}"]


def _wide_circuit(path, n: int, extra: str = "") -> str:
    body = "".join(f"h q[{i}];\ncx q[{i}],q[{i + 1}];\nrz(0.{i + 3}) q[{i + 1}];\n"
                   for i in range(n - 1))
    path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\n{body}{extra}'
                    f"cx q[{n - 1}],q[0];\nu3(0.1,0.2,0.3) q[3];\n")
    return str(path)


@pytest.mark.parametrize("extra, code, verdict", [
    ("", 0, "equivalent"),
    ("rz(1e-3) q[4];\n", 1, "NOT equivalent"),
], ids=["same", "rz-1e-3"])
def test_verify_above_the_unitary_cap(tmp_path, capsys, extra, code, verdict):
    # 10 qubits: more than a dense unitary holds, so the state probes decide
    a = _wide_circuit(tmp_path / "a.qasm", 10)
    b = _wide_circuit(tmp_path / "b.qasm", 10, extra)
    assert _run(["verify", a, b]) == code
    assert capsys.readouterr().out.startswith(f"{verdict} (max deviation")


def test_verify_above_the_simulator_cap_exits_2(tmp_path, capsys):
    a = _wide_circuit(tmp_path / "a.qasm", 16)
    assert _run(["verify", a, a]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["error: 16 qubits exceeds simulate cap 14"]


def test_verify_missing_file_is_one_error_line(tmp_path, capsys):
    # used to end in a FileNotFoundError traceback
    assert _run(["verify", str(tmp_path / "absent.qasm"), str(FIXTURES / "bell.qasm")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1


def test_simulate_subcommand(tmp_path, capsys):
    dev_path = tmp_path / "chain.json"
    dev_path.write_text(devicelib.line(7, basis="rigetti_pulse").to_json())
    out = tmp_path / "s.qasm"
    pulse_out = tmp_path / "s.pulse.json"
    assert _run(["-i", str(FIXTURES / "bell.qasm"), "-d", str(dev_path),
                 "-b", "rigetti_pulse", "-o", str(out), "--pulse", str(pulse_out)]) == 0
    result_out = tmp_path / "result.json"
    rc = _run(["simulate", str(pulse_out), "-d", str(dev_path), "-o", str(result_out)])
    assert rc == 0
    doc = json.loads(result_out.read_text())
    assert set(doc) == {"final_fidelity", "trace_error", "makespan_ns"}
    assert doc["trace_error"] <= 1e-8


# routed onto chain7 as is; at dt 0.5 ns its Lindblad run leaves the positive cone
COARSE_DT_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
rx(2.9923274543394056) q[2];
cx q[2],q[1];
s q[2];
t q[0];
x q[0];
s q[0];
rz(2.9463921145413323) q[3];
s q[2];
t q[1];
rz(-2.3034424028955938) q[0];
"""


@pytest.fixture(scope="module")
def coarse_dt_schedule(tmp_path_factory):
    d = tmp_path_factory.mktemp("coarse")
    dev_path = d / "chain7.json"
    dev_path.write_text(devicelib.line(7, basis="rigetti_pulse", t1_us=20.0, t2_us=15.0).to_json())
    src = d / "c.qasm"
    src.write_text(COARSE_DT_QASM)
    pulse_out = d / "c.pulse.json"
    assert _run(["-i", str(src), "-d", str(dev_path), "-b", "rigetti_pulse",
                 "-o", str(d / "c.out.qasm"), "--pulse", str(pulse_out)]) == 0
    return str(pulse_out), str(dev_path)


@pytest.mark.parametrize("dt,match", [
    ("0.5", "negative eigenvalue after integrating at dt_ns=0.5; reduce dt_ns"),
    ("0", "dt_ns must be a finite positive number"),
    ("nan", "dt_ns must be a finite positive number"),
    ("-0.1", "dt_ns must be a finite positive number"),
])
def test_simulate_bad_dt_is_one_error_line(coarse_dt_schedule, capsys, dt, match):
    schedule, dev_path = coarse_dt_schedule
    rc = _run(["simulate", schedule, "-d", dev_path, "--dt", dt])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and match in err


def test_routing_dominates_lowering_on_remote_heavy_input(tmp_path, toronto_json):
    # qualitative timing split: SWAP search outweighs basis decomposition
    import numpy as np
    rng = np.random.default_rng(3)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[16];"]
    for _ in range(4000):
        if rng.random() < 0.5:
            a, b = map(int, rng.choice(16, 2, replace=False))
            lines.append(f"cx q[{a}],q[{b}];")
        else:
            lines.append(f"rz({rng.uniform(-3, 3)!r}) q[{int(rng.integers(16))}];")
    src = tmp_path / "remote_heavy.qasm"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rh.qasm"
    assert _run(["-i", str(src), "-d", toronto_json, "-b", "ibmq", "-o", str(out)]) == 0
    timings = json.loads(Path(str(out) + ".summary.json").read_text())["timings_ms"]
    assert timings["route"] > timings["lower"]


def test_noise_adaptive_emits_top_k_placements(tmp_path, toronto_json):
    out = tmp_path / "nk.qasm"
    assert _run(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", toronto_json,
                 "-b", "ibmq", "-o", str(out), "--noise-adaptive"]) == 0
    s = json.loads(Path(str(out) + ".summary.json").read_text())
    assert 1 <= len(s["placements"]) <= 5
    scores = [p["score"] for p in s["placements"]]
    assert scores == sorted(scores)
    assert s["placements"][0]["score"] == s["placement_score"]


def test_constrained_with_noise_adaptive_verifies(tmp_path, toronto_json):
    out = tmp_path / "cna.qasm"
    rc = _run(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", toronto_json,
               "-b", "ibmq", "-o", str(out), "--constrain-k", "7",
               "--noise-adaptive", "--verify"])
    assert rc == 0
    s = json.loads(Path(str(out) + ".summary.json").read_text())
    assert s["verified"] is True
    used = {q for g in qasm.parse_file(out).gates for q in g.qubits}
    assert len(used) <= 7


def test_verify_failure_exits_4_without_output(tmp_path, line5_json, capsys, monkeypatch):
    real = lowering.lower

    def lower_dropping_the_first_cx(circ, basis):
        out = real(circ, basis)
        i = next(i for i, g in enumerate(out.gates) if g.name == "cx")
        return Circuit(out.num_qubits, out.gates[:i] + out.gates[i + 1:], out.measurements,
                       source_name=out.source_name)

    monkeypatch.setattr(lowering, "lower", lower_dropping_the_first_cx)
    out = tmp_path / "out.qasm"
    rc = _run(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-b", "ibmq",
               "-o", str(out), "--verify"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 4
    assert len(err) == 1 and err[0].startswith("error: output failed equivalence check")
    assert not out.exists() and not Path(str(out) + ".summary.json").exists()


def test_verify_above_the_oracle_cap_records_null(tmp_path):
    n = oracle.MAX_SIM_QUBITS + 1
    src = tmp_path / "wide.qasm"
    src.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\n'
                   + "".join(f"cx q[{i}],q[{i + 1}];\n" for i in range(n - 1)))
    dev = tmp_path / "line.json"
    dev.write_text(devicelib.line(n).to_json())
    out = tmp_path / "out.qasm"
    assert _run(["-i", str(src), "-d", str(dev), "-b", "ibmq", "-o", str(out), "--verify"]) == 0
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    assert "verified" in summary and summary["verified"] is None
    assert out.exists()


@pytest.mark.parametrize("exc,code", [(SchemaError("coupling", "bad edge"), 2),
                                      (NoRuleFor("frob", "ibmq"), 4)])
def test_compile_error_handlers(tmp_path, line5_json, capsys, monkeypatch, exc, code):
    def failing_route(*args, **kwargs):
        raise exc

    monkeypatch.setattr(route, "sabre_route", failing_route)
    out = tmp_path / "out.qasm"
    rc = _run(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-o", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == code
    assert err == [f"error: {exc}"]
    assert not out.exists()


def test_simulate_schedule_without_events(tmp_path, capsys):
    dev = tmp_path / "chain.json"
    dev.write_text(devicelib.line(2, basis="rigetti_pulse").to_json())
    schedule = tmp_path / "empty.pulse.json"
    schedule.write_text(json.dumps({"version": "qasmtrans-pulse/1", "dt_ns": 0.1,
                                    "events": [], "frames": {}}))
    assert _run(["simulate", str(schedule), "-d", str(dev)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"final_fidelity": 1.0, "trace_error": 0.0, "makespan_ns": 0.0}


def _exit_code(argv) -> int:
    try:
        return _run(argv)
    except SystemExit as exc:
        return exc.code


def test_unknown_backend_is_usage_error(tmp_path, line5_json, capsys):
    # this used to exit 4 ("no lowering rule"), after routing had run
    out = tmp_path / "ub.qasm"
    code = _exit_code(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-b", "mystery",
                       "-o", str(out)])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--backend" in errors[0] and "mystery" in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_backend_is_case_insensitive(tmp_path, line5_json):
    out = tmp_path / "ci.qasm"
    assert _run(["-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-b", "IBMQ",
                 "-o", str(out)]) == 0
    assert {g.name for g in qasm.parse_file(out).gates} <= lowering.VENDOR_BASES["ibmq"].gate_names()


@pytest.mark.parametrize("basis", ["mystery", 7, ["cx", "rz", "sx"]],
                         ids=["name", "number", "gate-list"])
def test_unknown_device_basis_is_device_error(tmp_path, capsys, basis):
    # these used to exit 4 ("no lowering rule"), after routing had run
    doc = devicelib.line(5).to_json_dict()
    doc["basis"] = basis
    dev = tmp_path / "dev" / "bad.json"
    dev.parent.mkdir()
    dev.write_text(json.dumps(doc))
    out = tmp_path / "ub.qasm"
    code = _exit_code(["-i", str(FIXTURES / "bell.qasm"), "-d", str(dev), "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: device schema error at basis")
    assert list(tmp_path.iterdir()) == [dev.parent]


@pytest.mark.parametrize("basis", ["IBMQ", None], ids=["upper-case", "null"])
def test_device_basis_spellings_still_compile(tmp_path, basis):
    # both compiled before the basis was checked up front; a null basis means ibmq
    doc = devicelib.line(5).to_json_dict()
    doc["basis"] = basis
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps(doc))
    out = tmp_path / "out.qasm"
    assert _run(["-i", str(FIXTURES / "bell.qasm"), "-d", str(dev), "-o", str(out)]) == 0
    assert {g.name for g in qasm.parse_file(out).gates} <= lowering.VENDOR_BASES["ibmq"].gate_names()


def test_second_main_call_reads_only_its_own_input(tmp_path, capsys):
    # main reuses one parser across calls
    bell, ghz = str(FIXTURES / "bell.qasm"), str(FIXTURES / "ghz_n5.qasm")
    assert _run(["-i", bell, "-o", str(tmp_path / "a.qasm")]) == 0
    assert _run(["-i", ghz, "-o", str(tmp_path / "b.qasm")]) == 0
    # -i appends to a list default; the second run must not see the first's input
    summary = json.loads((tmp_path / "b.qasm.summary.json").read_text())
    assert summary["inputs"] == [ghz]
    assert _exit_code(["-i", bell, "--verify"]) == 2
    assert "needs a device (-d)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fresh interpreters: what importing and compiling load
# ---------------------------------------------------------------------------

_SRC = str(Path(qasmtrans.__file__).resolve().parents[1])
_NO_NUMPY = "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)"
_QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports this qasmtrans."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", "import sys\n" + code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_import_loads_no_numpy():
    proc = _fresh("import qasmtrans, qasmtrans.cli\n" + _NO_NUMPY)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("body", [
    "rz(0.3) q[0];\nsx q[1];\nx q[2];\ncx q[0],q[2];\ncx q[2],q[1];\n",
    "h q[0];\nt q[1];\ns q[2];\nsdg q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
    "measure q[0] -> c[0];\nmeasure q[2] -> c[2];\n",
])
def test_native_basis_compile_loads_no_numpy(tmp_path, line5_json, body):
    src = tmp_path / "in.qasm"
    src.write_text(_QASM_HEAD + body)
    out = tmp_path / "out.qasm"
    argv = ["-i", str(src), "-d", line5_json, "-b", "ibmq", "-o", str(out)]
    proc = _fresh("from qasmtrans import cli\nassert cli.main(sys.argv[1:]) == 0\n" + _NO_NUMPY,
                  *argv)
    assert proc.returncode == 0, proc.stderr
    # the same bytes as a compile in this process, where numpy is loaded
    fresh = out.read_text()
    assert _run(argv) == 0
    assert out.read_text() == fresh


def test_fresh_noise_adaptive_verify_compile(tmp_path, line5_json):
    # the flags that need numpy import it on their own
    out = tmp_path / "out.qasm"
    proc = _fresh("from qasmtrans import cli\nsys.exit(cli.main(sys.argv[1:]))",
                  "-i", str(FIXTURES / "bell.qasm"), "-d", line5_json, "-o", str(out),
                  "--noise-adaptive", "--verify")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    assert summary["verified"] is True and summary["placement_score"] is not None


def test_critical_path_loads_no_numpy(line5_json):
    # placement and AGS ranking time gates through this path, so it stays numpy-free
    proc = _fresh("from qasmtrans import ir, qasm\nfrom qasmtrans.device import load_device\n"
                  "c = qasm.parse_file(sys.argv[1])\n"
                  "table = ir.DurationTable.for_device(load_device(sys.argv[2]))\n"
                  "print(ir.critical_path(c, table)[1])\n" + _NO_NUMPY,
                  str(FIXTURES / "ghz_n5.qasm"), line5_json)
    assert proc.returncode == 0, proc.stderr
    # h, then four cx in a chain, at the ibmq defaults
    assert float(proc.stdout) == 35.0 + 4 * 300.0


def test_every_export_resolves():
    # names from the numpy-backed modules are resolved on first access
    proc = _fresh("import json, qasmtrans\nns = {}\nexec('from qasmtrans import *', ns)\n"
                  "print(json.dumps(sorted(set(qasmtrans.__all__) - set(ns))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    for name in qasmtrans.__all__:
        assert getattr(qasmtrans, name) is not None, name
    assert qasmtrans.select_placement.__module__ == "qasmtrans.place"
    assert qasmtrans.critical_path.__module__ == "qasmtrans.ir"
    assert getattr(qasmtrans, "no_such_name", None) is None
    with pytest.raises(AttributeError):
        qasmtrans.no_such_name
