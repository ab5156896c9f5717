"""transpile(): the one compile path behind the CLI, constrained routing and
every space-share region, and the trace wrappers around its passes."""
import importlib.util
import json
from pathlib import Path

import pytest

from qasmtrans import cli, devicelib, load_device, qasm
from qasmtrans.route import RoutingOptions
from qasmtrans.transpile import TranspileOptions, transpile

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
                         "--noise-adaptive"]) == 0
        assert cli.main(["--space-share", bell, bell, "-d", str(dev),
                         "-o", str(tmp_path / "b.qasm"), "--noise-adaptive"]) == 0
    finally:
        undo()
    passes = {"route.sabre", "place.select", "lowering.lower"}
    assert passes | {"partition.space_share"} <= set(tracer.names)
    assert passes <= set(tracer.self_times(under="partition.space_share"))
    assert not tracer.broken()
