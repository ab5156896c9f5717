"""qasmtrans: a self-contained OpenQASM 2.0 transpiler with noise-adaptive
placement, device space sharing, pulse-schedule synthesis, and a built-in
pulse-level simulator plus ideal statevector oracle.

The compile path is imported eagerly and needs no numpy. The names of the
numpy-backed modules (placement, pulses, KAK, pulse simulation, oracle) are
resolved on first access through the module `__getattr__` (PEP 562)."""

import importlib

from .circuit import Circuit, GateIR, RegisterMap
from .device import CalibrationData, CouplingGraph, DeviceModel, load_device, partial_graph
from .ir import CircuitDag, CircuitStats, build_dag, critical_path, decompose_3q, stats
from .lowering import BasisSet, VENDOR_BASES, lower, lower_1q_zxz
from .partition import Region, grow_regions, penalty, seed_regions, space_share
from .qasm import Token, emit_qasm, parse, parse_file, parse_text, tokenize
from .route import (
    Layout,
    RoutingOptions,
    RoutingResult,
    prioritize_qubits,
    sabre_route,
)
from .transpile import TranspileOptions, TranspileResult, transpile

__version__ = "0.1.0"

# submodule -> the names exported from it on first access
_LAZY = {
    "place": ("enumerate_embeddings", "interaction_graph", "select_placement"),
    "pulse": ("AshNParams", "PulseEvent", "PulseLibrary", "Schedule", "ags_candidates",
              "build_schedule", "synthesize_ashn"),
    "kak": ("WeylPoint", "euler_two_pulse", "kak_decompose"),
    "pulsesim": ("PulseModel", "avg_gate_fidelity", "hamiltonian_at", "lindblad_evolve",
                 "optimize_pulse", "propagate", "state_fidelity"),
    "oracle": ("circuit_unitary", "equivalent", "simulate"),
}
_LAZY_SOURCE = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    mod = _LAZY_SOURCE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Circuit", "GateIR", "RegisterMap", "Token",
    "tokenize", "parse", "parse_text", "parse_file", "emit_qasm",
    "CircuitDag", "CircuitStats", "build_dag", "critical_path", "decompose_3q", "stats",
    "CouplingGraph", "CalibrationData", "DeviceModel", "load_device", "partial_graph",
    "Layout", "RoutingOptions", "RoutingResult",
    "sabre_route", "prioritize_qubits",
    "TranspileOptions", "TranspileResult", "transpile",
    "BasisSet", "VENDOR_BASES", "lower", "lower_1q_zxz",
    "interaction_graph", "enumerate_embeddings", "select_placement",
    "Region", "penalty", "seed_regions", "grow_regions", "space_share",
    "PulseEvent", "PulseLibrary", "Schedule", "AshNParams",
    "build_schedule", "ags_candidates", "synthesize_ashn",
    "WeylPoint", "kak_decompose", "euler_two_pulse",
    "PulseModel", "hamiltonian_at", "propagate", "lindblad_evolve",
    "avg_gate_fidelity", "state_fidelity", "optimize_pulse",
    "simulate", "circuit_unitary", "equivalent",
    "__version__",
]
