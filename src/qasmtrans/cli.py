"""Command-line entry point: argument parsing, file I/O, `--verify`,
`--pulse` and the run summary around one `transpile()` call per circuit
(decompose-3q -> [prioritize] -> route -> [noise-adaptive place] -> lower),
or one `partition.space_share` call for `--space-share`; plus the `verify`
and `simulate` subcommands.

Artifacts are written atomically. Every run also produces a summary JSON
(schema "qasmtrans-summary/1") with per-stage timings, circuit statistics
before and after, inserted SWAP count, and the placement score when the
noise-adaptive pass ran. Timings are the only nondeterministic fields; all
other artifacts are byte-identical across identical invocations. `main` runs
with the cyclic garbage collector paused (`transpile.gc_paused`), so
`timings_ms` no longer includes collector pauses. `oracle` and `pulse` (and
numpy with them) are imported only by `--verify`, `--pulse`, `verify` and
`simulate`, through the module, so wrappers on their attributes see every
call; the first `--pulse` of a process counts that import in its `pulse`
timing.

Exit codes: 0 success, 1 parse error, 2 device error or a usage error (flags
that cannot be combined, an unknown basis, a bad `verify --perm`, `verify`
circuits of different widths or wider than the simulator's cap), 3 routing
infeasible, 4 internal invariant breach.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

from . import device as device_mod
from . import ir, partition, qasm, route
# bound here only because perfbench/spans.py wraps `cli.lower_circuit`
from .lowering import lower as lower_circuit  # noqa: F401
from .lowering import VENDOR_BASES
from .errors import (
    DimensionMismatch,
    Disconnected,
    Infeasible,
    QasmTransError,
    SchemaError,
    TooManyQubits,
)
from .transpile import TranspileOptions, gc_paused, timed, transpile

PARSE_ERROR, DEVICE_ERROR, ROUTING_ERROR, INTERNAL_ERROR = 1, 2, 3, 4
USAGE_ERROR = 2                    # argparse exits with the same code

# flag -> flags it cannot be combined with (argparse usage error, exit 2)
CONFLICTS = {
    "--space-share": ("--pulse", "--verify", "--priority", "--constrain-k"),
    "--priority": ("--noise-adaptive", "--refine-layout", "--constrain-k"),
}
# flags only a compile reads; without -d they would be ignored (usage error)
COMPILE_ONLY = ("--backend", "--seed", "--noise-adaptive", "--pulse", "--constrain-k",
                "--priority", "--verify", "--refine-layout", "--extended-set-size",
                "--decay-increment", "--decay-reset", "--placement-limit")

# space-share placement enumerates at most this many embeddings per region
SPACE_SHARE_PLACEMENT_LIMIT = 1000


@dataclass
class JobConfig:
    inputs: list[str] = field(default_factory=list)
    device_path: str | None = None
    output: str | None = None
    space_share: bool = False
    pulse_out: str | None = None
    stats: bool = False
    verify: bool = False
    transpile: TranspileOptions = field(default_factory=TranspileOptions)


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit_summary(cfg: JobConfig, summary: dict):
    text = json.dumps(summary, indent=2) + "\n"
    if cfg.output:
        _atomic_write(cfg.output + ".summary.json", text)
    else:
        sys.stdout.write(text)


def run(cfg: JobConfig) -> int:
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    summary = {"version": "qasmtrans-summary/1", "inputs": list(cfg.inputs)}
    try:
        with timed(timings, "parse"):
            circuits = [qasm.parse_file(p) for p in cfg.inputs]
    except (QasmTransError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR

    dev = None
    if cfg.device_path:
        try:
            with timed(timings, "device"):
                dev = device_mod.load_device(cfg.device_path)
            for warning in dev.warnings:
                print(f"warning: {warning}", file=sys.stderr)
        except (QasmTransError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return DEVICE_ERROR
        priority = cfg.transpile.priority
        if priority is not None and sorted(priority) != list(range(dev.num_qubits)):
            print(f"error: --priority must be a permutation of 0..{dev.num_qubits - 1}",
                  file=sys.stderr)
            return USAGE_ERROR

    try:
        if cfg.space_share:
            return _run_space_share(cfg, circuits, dev, timings, summary, t_start)
        circ = circuits[0]
        summary["stats_before"] = ir.stats(circ).to_dict()

        if dev is None:
            # statistics-only mode
            if cfg.stats:
                print(ir.stats(circ).to_text())
            summary["timings_ms"] = _finish_timings(timings, t_start)
            _emit_summary(cfg, summary)
            return 0

        result = transpile(circ, dev, cfg.transpile)
        timings.update(result.timings_ms)
        final_circ = result.circuit
        summary["swaps_inserted"] = result.swaps_inserted
        summary["placement_score"] = None
        if result.placements is not None:
            summary["placement_score"] = result.placements[0].score
            summary["placements"] = [
                {"mapping": [p for p in s_.mapping.virt_to_phys if p is not None],
                 "score": s_.score, "cp_length": s_.cp_length}
                for s_ in result.placements
            ]
        summary["initial_layout"] = result.initial_layout
        summary["final_layout"] = result.final_layout
        summary["stats_after"] = ir.stats(final_circ).to_dict()

        if cfg.verify:
            from . import oracle
            try:
                ok, dev_val = oracle.pipeline_equivalent(circ, final_circ, result.initial_layout,
                                                         result.final_layout)
            except TooManyQubits:
                summary["verified"] = None  # too large for the oracle
            else:
                summary["verified"] = bool(ok)
                if not ok:
                    print(f"error: output failed equivalence check (dev={dev_val:.3e})",
                          file=sys.stderr)
                    return INTERNAL_ERROR

        with timed(timings, "emit"):
            text = qasm.emit_qasm(final_circ)
            if cfg.output:
                _atomic_write(cfg.output, text)
            else:
                sys.stdout.write(text)

        if cfg.pulse_out:
            with timed(timings, "pulse"):
                from . import pulse
                lib = pulse.PulseLibrary.for_device(dev)
                schedule = pulse.build_schedule(final_circ, lib, dev)
                _atomic_write(cfg.pulse_out, schedule.to_json() + "\n")
                summary["pulse_makespan_ns"] = schedule.makespan_ns

        if cfg.stats:
            print(ir.stats(final_circ).to_text())
        summary["timings_ms"] = _finish_timings(timings, t_start)
        _emit_summary(cfg, summary)
        return 0
    except (TooManyQubits, Disconnected, Infeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ROUTING_ERROR
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEVICE_ERROR
    except QasmTransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def _finish_timings(timings: dict[str, float], t_start: float) -> dict:
    out = dict(timings)
    out["total"] = (time.perf_counter() - t_start) * 1000.0
    return out


def _run_space_share(cfg, circuits, dev, timings, summary, t_start) -> int:
    if dev is None:
        print("error: --space-share requires a device", file=sys.stderr)
        return DEVICE_ERROR
    opts = replace(cfg.transpile, placement_limit=min(cfg.transpile.placement_limit,
                                                      SPACE_SHARE_PLACEMENT_LIMIT))
    with timed(timings, "space_share"):
        result = partition.space_share(circuits, dev, opts)
    text = qasm.emit_qasm(result.merged)
    if cfg.output:
        _atomic_write(cfg.output, text)
        _atomic_write(cfg.output + ".regions.json",
                      json.dumps(result.reports, indent=2) + "\n")
    else:
        sys.stdout.write(text)
    summary["regions"] = result.reports
    summary["stats_after"] = ir.stats(result.merged).to_dict()
    summary["timings_ms"] = _finish_timings(timings, t_start)
    _emit_summary(cfg, summary)
    return 0


def _run_simulate(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="qasmtrans simulate",
                                 description="noisy pulse-level run of a schedule JSON")
    ap.add_argument("schedule")
    ap.add_argument("-d", "--device", required=True)
    ap.add_argument("-o", "--output", help="write the result JSON here instead of stdout")
    ap.add_argument("--dt", type=float, default=None, help="integration step in ns")
    args = ap.parse_args(argv)
    from . import pulse
    try:
        dev = device_mod.load_device(args.device)
        with open(args.schedule, "r", encoding="utf-8") as fh:
            schedule = pulse.schedule_from_json(fh.read())
        result = pulse.simulate_schedule(schedule, dev, dt_ns=args.dt)
    except (QasmTransError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEVICE_ERROR
    text = json.dumps(result, indent=2) + "\n"
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _run_verify(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="qasmtrans verify",
                                 description="check two circuits for equivalence")
    ap.add_argument("circuits", nargs=2)
    ap.add_argument("--perm", type=_int_list,
                    help="comma-separated qubit permutation applied to the second circuit")
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args(argv)
    from . import oracle
    try:
        c1 = qasm.parse_file(args.circuits[0])
        c2 = qasm.parse_file(args.circuits[1])
        ok, dev_val = oracle.equivalent(c1, c2, layout_perm=args.perm, tol=args.tol)
    except (QasmTransError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a --perm that is no permutation of the qubits, circuits of
        # different widths, or circuits too wide to simulate are bad usage,
        # not a parse error
        if isinstance(exc, (DimensionMismatch, TooManyQubits)):
            return USAGE_ERROR
        return PARSE_ERROR
    print(f"{'equivalent' if ok else 'NOT equivalent'} (max deviation {dev_val:.3e})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qasmtrans",
        description="OpenQASM 2.0 transpiler with pulse-schedule generation")
    ap.add_argument("-i", "--input", action="append", default=[],
                    help="input QASM file (repeatable)")
    ap.add_argument("-d", "--device", help="device JSON file")
    ap.add_argument("-b", "--backend", type=str.lower, choices=tuple(VENDOR_BASES),
                    help="target basis (default: the device's)")
    ap.add_argument("-o", "--output", help="output QASM path")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise-adaptive", action="store_true",
                    help="rank embeddings by mean critical-path error after routing")
    ap.add_argument("--space-share", nargs="+", metavar="QASM",
                    help="partition the device and run these circuits concurrently")
    ap.add_argument("--pulse", metavar="JSON", help="emit a pulse schedule")
    ap.add_argument("--constrain-k", type=int,
                    help="route inside a connected partial graph of this size")
    ap.add_argument("--priority", type=_int_list,
                    help="comma-separated qubit priority order, highest first")
    ap.add_argument("--stats", action="store_true", help="print circuit statistics")
    ap.add_argument("--verify", action="store_true",
                    help="oracle-check the output against the input (small circuits)")
    ap.add_argument("--refine-layout", action="store_true",
                    help="3 forward/backward initial-layout refinement rounds")
    ap.add_argument("--extended-set-size", type=int, default=20,
                    help="lookahead window for the routing heuristic")
    ap.add_argument("--decay-increment", type=float, default=0.001)
    ap.add_argument("--decay-reset", type=int, default=5,
                    help="reset the decay factors every N inserted SWAPs")
    ap.add_argument("--placement-limit", type=_positive_int, default=10000)
    return ap


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return int(text)


def _given(ap: argparse.ArgumentParser, args: argparse.Namespace, flag: str) -> bool:
    """Whether the flag was set to something other than its parser default."""
    dest = flag[2:].replace("-", "_")
    return getattr(args, dest) != ap.get_default(dest)


# the compile parser, shared by every `main` call; built at import because
# building it lazily in the first compile raised perfbench's adaptive_hh127
# peak RSS by 0.59 MB (46.25 -> 46.84 MB medians, 10 pairs, 2-core x86 host)
_PARSER = build_parser()


@gc_paused()
def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "verify":
        return _run_verify(argv[1:])
    if argv and argv[0] == "simulate":
        return _run_simulate(argv[1:])
    ap = _PARSER
    args = ap.parse_args(argv)
    inputs = list(args.input)
    if args.space_share:
        inputs = list(args.space_share)
    if not inputs:
        ap.error("no input circuits (-i or --space-share)")
    for flag, others in CONFLICTS.items():
        for other in others:
            if _given(ap, args, flag) and _given(ap, args, other):
                ap.error(f"{flag} cannot be combined with {other}")
    if args.device is None:
        for flag in COMPILE_ONLY:
            if _given(ap, args, flag):
                ap.error(f"{flag} needs a device (-d)")
    routing = route.RoutingOptions(refinement_rounds=3 if args.refine_layout else 0,
                                   extended_set_size=args.extended_set_size,
                                   decay_increment=args.decay_increment,
                                   decay_reset_interval=args.decay_reset)
    cfg = JobConfig(
        inputs=inputs,
        device_path=args.device,
        output=args.output,
        space_share=bool(args.space_share),
        pulse_out=args.pulse,
        stats=args.stats,
        verify=args.verify,
        transpile=TranspileOptions(
            seed=args.seed,
            basis=args.backend,
            routing=routing,
            noise_adaptive=args.noise_adaptive,
            placement_limit=args.placement_limit,
            constrain_k=args.constrain_k,
            priority=args.priority,
        ),
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
