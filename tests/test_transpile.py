"""transpile(): the one compile path behind the CLI, constrained routing and
every space-share region, the trace wrappers around its passes, and the
paused garbage collector."""
import gc
import importlib.util
import json
from pathlib import Path

import pytest

from qasmtrans import cli, devicelib, load_device, lowering, oracle, pulse, qasm, route
from qasmtrans.errors import SchemaError
from qasmtrans.route import RoutingOptions
from qasmtrans.transpile import TranspileOptions, gc_paused, transpile

from conftest import FIXTURES

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def toronto_json(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("dev") / "toronto.json"
    p.write_text(devicelib.toronto27(jitter_seed=11).to_json())
    return str(p)


def test_space_share_routing_flag_matches_transpile(tmp_path, toronto_json):
    # --space-share used to route every region with the default options
    out = tmp_path / "ssd.qasm"
    srcs = [str(FIXTURES / "qec_n5.qasm"), str(FIXTURES / "qaoa_n6.qasm")]
    assert cli.main(["--space-share", *srcs, "-d", toronto_json, "-b", "ibmq",
                     "-o", str(out), "--decay-increment", "0.5"]) == 0
    merged = qasm.parse_file(out)
    dev = load_device(toronto_json)
    opts = TranspileOptions(basis="ibmq", routing=RoutingOptions(decay_increment=0.5))
    changed = False
    for report in json.loads(Path(str(out) + ".regions.json").read_text()):
        circ = qasm.parse_file(report["circuit_file"])
        region = report["qubits"]
        want = transpile(circ, dev, opts, region=region).circuit.gates
        assert [g for g in merged.gates if set(g.qubits) <= set(region)] == want
        plain = transpile(circ, dev, TranspileOptions(basis="ibmq"), region=region)
        changed |= plain.circuit.gates != want
    assert changed


def test_priority_rejects_options_it_cannot_honour(circuits, line5):
    for opts in (TranspileOptions(priority=[0, 1, 2, 3, 4], noise_adaptive=True),
                 TranspileOptions(priority=[0, 1, 2, 3, 4], constrain_k=5),
                 TranspileOptions(priority=[0, 1, 2, 3, 4],
                                  routing=RoutingOptions(refinement_rounds=3))):
        with pytest.raises(ValueError):
            transpile(circuits["bell"], line5, opts)
    with pytest.raises(ValueError):
        transpile(circuits["bell"], line5, TranspileOptions(constrain_k=3), region=[0, 1, 2])


def test_unknown_basis_fails_before_routing(monkeypatch, circuits, line5):
    # this used to route first and raise NoRuleFor from lowering
    def no_routing(*args, **kwargs):
        raise AssertionError("routed before checking the basis")

    monkeypatch.setattr(route, "sabre_route", no_routing)
    for device, opts in ((line5, TranspileOptions(basis="mystery")),
                         (devicelib.line(5, basis="mystery"), None)):
        with pytest.raises(SchemaError, match="basis"):
            transpile(circuits["bell"], device, opts)


def test_trace_wrappers_see_every_pass(tmp_path):
    # perfbench/spans.py wraps module attributes; a pass called through a name
    # bound by `from ... import` escapes its wrapper and reads 0
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    dev = tmp_path / "line6.json"
    dev.write_text(devicelib.line(6).to_json())
    bell = str(FIXTURES / "bell.qasm")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert tracer.missing == {}
        assert cli.main(["-i", bell, "-d", str(dev), "-o", str(tmp_path / "a.qasm"),
                         "--noise-adaptive", "--verify"]) == 0
        assert cli.main(["--space-share", bell, bell, "-d", str(dev),
                         "-o", str(tmp_path / "b.qasm"), "--noise-adaptive"]) == 0
    finally:
        undo()
    passes = {"route.sabre", "place.select", "lowering.lower"}
    assert passes | {"partition.space_share", "oracle.verify",
                     "place.critical_path"} <= set(tracer.names)
    assert passes <= set(tracer.self_times(under="partition.space_share"))
    assert not tracer.broken()
    # the embedding array feeds the traced placement counters
    assert "place.enumerate" in tracer.names
    assert tracer.counts.get("place.embeddings", 0) > 0


@pytest.fixture
def line_json(tmp_path):
    def make(n: int, **kw) -> str:
        p = tmp_path / f"line{n}.json"
        p.write_text(devicelib.line(n, **kw).to_json())
        return str(p)
    return make


def test_cli_restores_the_collector_on_every_exit(tmp_path, line_json, capsys):
    bell = str(FIXTURES / "bell.qasm")
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[2]; frobnicate q[0];")
    chain = line_json(7, basis="rigetti_pulse")
    pulse_out = tmp_path / "bell.pulse.json"
    assert gc.isenabled()
    assert cli.main(["-i", bell, "-d", chain, "-b", "rigetti_pulse",
                     "-o", str(tmp_path / "a.qasm"), "--pulse", str(pulse_out)]) == 0
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        cli.main(["-i", bell, "--seed", "3"])          # --seed needs a device
    assert gc.isenabled()
    assert cli.main(["-i", str(bad), "--stats"]) == 1
    assert gc.isenabled()
    assert cli.main(["-i", str(FIXTURES / "ghz_n5.qasm"), "-d", line_json(2),
                     "-o", str(tmp_path / "b.qasm")]) == 3
    assert gc.isenabled()
    assert cli.main(["verify", bell, bell]) == 0
    assert gc.isenabled()
    assert cli.main(["simulate", str(pulse_out), "-d", chain,
                     "-o", str(tmp_path / "sim.json")]) == 0
    assert gc.isenabled()


def test_transpile_restores_the_collector_when_it_raises(circuits, line5):
    assert gc.isenabled()
    with pytest.raises(ValueError):
        transpile(circuits["bell"], line5, TranspileOptions(priority=[0, 1, 2, 3, 4],
                                                            noise_adaptive=True))
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled(circuits, line5, line_json):
    gc.disable()
    try:
        transpile(circuits["bell"], line5)
        assert not gc.isenabled()
        with gc_paused():
            with gc_paused():
                pass
            assert not gc.isenabled()
        assert cli.main(["-i", str(FIXTURES / "bell.qasm"), "-d", line_json(5),
                         "--stats"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def _record_collector_state(monkeypatch, module, name: str, seen: list):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("module,name", [(qasm, "parse_file"), (route, "sabre_route"),
                                         (lowering, "lower")])
def test_passes_run_with_the_collector_paused(monkeypatch, circuits, line5, line_json,
                                              module, name):
    seen = []
    _record_collector_state(monkeypatch, module, name, seen)
    if module is not qasm:
        transpile(circuits["bell"], line5)
    assert cli.main(["-i", str(FIXTURES / "bell.qasm"), "-d", line_json(5), "--stats"]) == 0
    assert seen and not any(seen)
    assert gc.isenabled()


def test_subcommands_run_with_the_collector_paused(monkeypatch, tmp_path, line_json):
    seen = []
    _record_collector_state(monkeypatch, oracle, "equivalent", seen)
    _record_collector_state(monkeypatch, pulse, "simulate_schedule", seen)
    bell = str(FIXTURES / "bell.qasm")
    chain = line_json(7, basis="rigetti_pulse")
    pulse_out = tmp_path / "bell.pulse.json"
    assert cli.main(["-i", bell, "-d", chain, "-b", "rigetti_pulse",
                     "-o", str(tmp_path / "a.qasm"), "--pulse", str(pulse_out)]) == 0
    assert cli.main(["verify", bell, bell]) == 0
    assert cli.main(["simulate", str(pulse_out), "-d", chain,
                     "-o", str(tmp_path / "sim.json")]) == 0
    assert seen == [False, False]
    assert gc.isenabled()
