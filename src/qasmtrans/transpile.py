"""One compile: decompose-3q -> [prioritize] -> route -> [noise-adaptive
place] -> lift -> lower.

The target is the whole device, a connected k-qubit partial graph of it
(`constrain_k`), or one space-share region. Routing and placement run on the
target's own qubit numbering; the result is lifted to the device's numbering
once, before lowering. Passes are called through their modules
(`route.sabre_route`, not a name imported from `route`), so wrappers
installed on module attributes see every call.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import ir, lowering, place, route
from .circuit import Circuit
from .device import DeviceModel, partial_graph, restrict_device
from .errors import TooManyQubits


@dataclass
class TranspileOptions:
    seed: int = 0
    basis: str | list[str] | None = None     # None: the device's basis
    routing: route.RoutingOptions = field(default_factory=route.RoutingOptions)
    noise_adaptive: bool = False
    placement_limit: int = 10000
    constrain_k: int | None = None
    # permutation of the target's qubits, busiest circuit qubit first
    priority: list[int] | None = None


@dataclass
class TranspileResult:
    circuit: Circuit                 # lowered, on the device's qubit numbering
    initial_layout: list[int]        # circuit qubit -> device qubit
    final_layout: list[int]
    swaps_inserted: int
    qubits: list[int]                # device qubits of the target
    placements: list[place.PlacementScore] | None = None   # best first
    timings_ms: dict[str, float] = field(default_factory=dict)


@contextmanager
def timed(timings: dict[str, float], name: str):
    """Record the wall time of the block in milliseconds under `name`."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = (time.perf_counter() - t0) * 1000.0


def transpile(circuit: Circuit, device: DeviceModel, options: TranspileOptions | None = None,
              region: list[int] | None = None) -> TranspileResult:
    """Compile `circuit` for `device`, inside `region` (device qubits, sorted)
    when given. Deterministic for fixed (circuit, device, options, region)."""
    opts = options or TranspileOptions()
    if opts.priority is not None and (opts.noise_adaptive or opts.routing.refinement_rounds
                                      or opts.constrain_k is not None or region is not None):
        raise ValueError("priority cannot be combined with noise-adaptive placement, "
                         "layout refinement, constrain_k or a region")
    if region is not None and opts.constrain_k is not None:
        raise ValueError("constrain_k cannot be combined with a region")
    target, qubits = _target(circuit, device, opts.constrain_k, region)
    timings: dict[str, float] = {}
    with timed(timings, "decompose"):
        flat = ir.decompose_3q(circuit)
    perm = None
    if opts.priority is not None:
        # the priority is a permutation of the target's qubits, so widen first
        if flat.num_qubits < target.num_qubits:
            flat = Circuit(target.num_qubits, flat.gates, flat.measurements,
                           source_name=flat.source_name)
        flat, perm = route.prioritize_qubits(flat, opts.priority)
    with timed(timings, "route"):
        routed = route.sabre_route(flat, target, seed=opts.seed, opts=opts.routing)
    circ = routed.circuit
    initial = list(routed.initial_layout.virt_to_phys)
    final = list(routed.final_layout.virt_to_phys)
    if perm is not None:
        initial = [initial[perm[v]] for v in range(circuit.num_qubits)]
        final = [final[perm[v]] for v in range(circuit.num_qubits)]
    ranked = None
    if opts.noise_adaptive:
        with timed(timings, "place"):
            best, ranked = place.select_placement(circ, target, limit=opts.placement_limit)
            relabel = _total_perm(best.mapping.virt_to_phys, target.num_qubits)
            circ = circ.remapped(relabel)
            initial = [relabel[p] for p in initial]
            final = [relabel[p] for p in final]
    if target is not device:
        circ = circ.remapped(qubits, device.num_qubits)
        initial = [qubits[p] for p in initial]
        final = [qubits[p] for p in final]
    with timed(timings, "lower"):
        out = lowering.lower(circ, opts.basis or device.basis or "ibmq")
    return TranspileResult(out, initial, final, routed.swaps_inserted, qubits, ranked, timings)


def _target(circuit: Circuit, device: DeviceModel, k: int | None,
            region: list[int] | None) -> tuple[DeviceModel, list[int]]:
    """The device to route on, and its qubits in the device's numbering."""
    if region is not None:
        return restrict_device(device, region), list(region)
    if k is None:
        return device, list(range(device.num_qubits))
    if k < circuit.num_qubits:
        raise TooManyQubits(f"k={k} is below the circuit's {circuit.num_qubits} qubits")
    sub = partial_graph(device, min(k, device.num_qubits))
    # sub.parent_qubits names the root device's qubits; map them to device's
    index = {q: i for i, q in enumerate(device.parent_qubits or range(device.num_qubits))}
    return sub, [index[q] for q in sub.parent_qubits]


def _total_perm(mapping, n: int) -> dict[int, int]:
    """Complete a partial virtual -> physical mapping to a permutation of n,
    filling unmapped slots with the unused qubits in ascending order."""
    perm = dict(enumerate(mapping))
    spare = iter(sorted(set(range(n)) - set(mapping)))
    for v in range(n):
        if perm.get(v) is None:
            perm[v] = next(spare)
    return perm
