"""Spans and counters recorded around the program's public module functions.

`install(tracer)` replaces module attributes of `qasmtrans` with wrappers
and returns an undo function; `src/` itself is not changed. A name is
wrapped at every module that binds it (for example `lowering.lower` is also
bound as `cli.lower_circuit`). A binding site that a later version of the
program no longer has is recorded in `Tracer.missing`, and a layer whose
inputs or results no longer have the fields counted here is counted as
unobserved; `broken()` names both, so their metrics are not read as 0.

Each span records (name, start, end, parent). Spans stay in memory until the
run ends. Hot inner functions are counted, not spanned.
"""
from __future__ import annotations

import functools
import importlib
import time

# span name -> [(module, attribute), ...] binding the same function
SPANNED = {
    "qasm.tokenize": [("qasm", "tokenize")],
    "qasm.parse": [("qasm", "parse_text")],
    "qasm.emit": [("qasm", "emit_qasm")],
    "device.load": [("device", "load_device")],
    "ir.decompose": [("ir", "decompose_3q")],
    "ir.stats": [("ir", "stats")],
    "route.sabre": [("route", "sabre_route")],
    "place.select": [("place", "select_placement")],
    "place.enumerate": [("place", "enumerate_embeddings")],
    "place.critical_path": [("place", "critical_path")],
    "lowering.lower": [("lowering", "lower"), ("cli", "lower_circuit")],
    "partition.space_share": [("partition", "space_share")],
    "partition.partition": [("partition", "partition_device")],
    "oracle.verify": [("oracle", "pipeline_equivalent")],
    "pulse.build_schedule": [("pulse", "build_schedule")],
    "pulse.simulate_schedule": [("pulse", "simulate_schedule")],
    "pulse.synthesize_ashn": [("pulse", "synthesize_ashn"), ("", "synthesize_ashn")],
    "pulsesim.lindblad": [("pulsesim", "lindblad_evolve")],
    "pulsesim.propagate": [("pulsesim", "propagate"), ("pulse", "propagate")],
    "pulsesim.optimize": [("pulse", "optimize_pulse")],
    "kak.decompose": [("kak", "kak_decompose"), ("pulse", "kak_decompose")],
}

# counter name -> [(module, attribute), ...]
COUNTED = {
    "gates.matrix_calls": [("gates", "matrix_parts")],
    "pulsesim.hamiltonian_evals": [("pulsesim", "hamiltonian_at")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: dict[str, list[str]] = {}   # span/counter name -> sites not found

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(i)
        return i

    def end(self, i: int):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, by: float = 1):
        self.counts[name] = self.counts.get(name, 0) + by

    def self_times(self, under: str | None = None) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.
        With `under`, only spans inside a top-level span of that name count."""
        root: list[int] = []
        for i, p in enumerate(self.parents):
            root.append(i if p < 0 else root[p])
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if under is not None and self.names[root[i]] != under:
                continue
            d = self.ends[i] - self.starts[i]
            out[name] = out.get(name, 0.0) + d
            p = self.parents[i]
            if p >= 0:
                out[self.names[p]] = out.get(self.names[p], 0.0) - d
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + self.ends[i] - self.starts[i]
        return out

    def broken(self) -> dict[str, str]:
        """Span and counter names whose figures cannot be trusted, with why."""
        out = {name: "not found: " + ", ".join(sites) for name, sites in self.missing.items()}
        for key in self.counts:
            if key.endswith(".unobserved"):
                name = key[:-len(".unobserved")]
                out[name] = out.get(name, "result fields changed")
        return out

    def rows(self):
        for i, name in enumerate(self.names):
            yield {"id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                   "parent": self.parents[i]}


def _observe(tracer: Tracer, name: str, args, kwargs, result):
    """Counts taken from a layer's inputs and outputs."""
    if name == "qasm.tokenize":
        tracer.count("qasm.bytes_in", len(args[0]))
        tracer.count("qasm.tokens", len(result))
    elif name == "qasm.emit":
        tracer.count("qasm.bytes_out", len(result))
    elif name == "route.sabre":
        tracer.count("route.swaps", result.swaps_inserted)
        tracer.count("route.gates_out", len(result.circuit.gates))
        tracer.count("route.two_qubit_in", sum(1 for g in args[0].gates if len(g.qubits) == 2))
    elif name == "place.enumerate":
        limit = kwargs.get("limit", args[2] if len(args) > 2 else 10000)
        tracer.count("place.enumerations")
        tracer.count("place.embeddings", len(result))
        tracer.count("place.truncated", len(result) >= limit)
    elif name == "lowering.lower":
        tracer.count("lowering.gates_out", len(result.gates))
    elif name == "pulse.build_schedule":
        tracer.count("pulse.events", len(result.events))
    elif name == "kak.decompose":
        tracer.count("kak.calls")


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            if name == "pulsesim.optimize":
                args = (_counted(tracer, "pulsesim.objective_evals", args[0]),) + args[1:]
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.count(f"{name}.raised.{type(exc).__name__}")
            raise
        finally:
            tracer.end(i)
        try:
            _observe(tracer, name, args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):   # the interface changed
            tracer.count(f"{name}.unobserved")
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap every binding site; record the sites that do not exist in
    `tracer.missing`. Returns a function that undoes the wrapping."""
    saved = []
    for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
        for name, sites in table.items():
            for modname, attr in sites:
                qualname = "qasmtrans" + (f".{modname}" if modname else "")
                try:
                    mod = importlib.import_module(qualname)
                except ModuleNotFoundError:
                    mod = None
                fn = getattr(mod, attr, None)
                if fn is None:
                    tracer.missing.setdefault(name, []).append(f"{qualname}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, make(tracer, name, fn))

    def undo():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
    return undo
