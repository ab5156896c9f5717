"""Space sharing: partition the device into disjoint connected regions sized
to a batch of circuits, transpile each independently, and stitch the results
into one concurrent program.

Partitioning runs in three stages: seeding (largest request first, seeds
spread by max-min distance), lockstep growth (strict round-robin, one claim
per region per round), and a final validity pass. A blocked region may steal
a leaf qubit from an adjacent region that is ahead of its proportional
growth schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import Circuit
from .device import DeviceModel
from .errors import GrowthStuck, IsolatedQubit, TooManyQubitsRequested
from .transpile import TranspileOptions, transpile


def penalty(q: int, device: DeviceModel) -> float:
    """Single-qubit error plus the mean two-qubit error on incident couplers."""
    nbrs = device.coupling.adjacency[q]
    if not nbrs:
        raise IsolatedQubit(q)
    cal = device.calibration
    return cal.e1[q] + sum(cal.edge_error(q, r) for r in nbrs) / len(nbrs)


@dataclass
class Region:
    id: int
    qubits: set[int]
    seed_qubit: int
    requested_size: int
    circuit_index: int | None = None

    @property
    def complete(self) -> bool:
        return len(self.qubits) >= self.requested_size


def seed_regions(sizes: list[int], device: DeviceModel) -> list[int]:
    """One seed per requested region, handled largest to smallest.

    The first seed is the lowest-penalty qubit; each subsequent seed
    maximizes its minimum distance to all prior seeds (ties: lower penalty,
    then lower index).
    """
    n = device.num_qubits
    if sum(sizes) > n:
        raise TooManyQubitsRequested(f"requested {sum(sizes)} qubits on a {n}-qubit device")
    if sorted(sizes, reverse=True) != list(sizes):
        raise TooManyQubitsRequested("sizes must be sorted descending")
    pen = [penalty(q, device) for q in range(n)]
    dist = device.coupling.distance_matrix
    seeds: list[int] = []
    for _ in sizes:
        free = [q for q in range(n) if q not in seeds]
        if not seeds:
            best = min(free, key=lambda q: (pen[q], q))
        else:
            best = min(free, key=lambda q: (-min(dist[q][s] for s in seeds), pen[q], q))
        seeds.append(best)
    return seeds


def grow_regions(seeds: list[int], sizes: list[int], device: DeviceModel) -> list[Region]:
    """Lockstep round-robin growth until every region reaches its size."""
    regions = [Region(i, {seed}, seed, size) for i, (seed, size) in enumerate(zip(seeds, sizes))]
    owner: dict[int, int] = {seed: i for i, seed in enumerate(seeds)}
    adj = device.coupling.adjacency
    pen = [penalty(q, device) for q in range(device.num_qubits)]
    max_rounds = max(sizes)
    round_no = -1
    safety_cap = 4 * device.num_qubits + 8
    while any(not r.complete for r in regions):
        round_no += 1
        if round_no > safety_cap:
            raise GrowthStuck("growth did not converge")
        progress = False
        for reg in regions:
            if reg.complete:
                continue
            frontier = sorted({w for v in reg.qubits for w in adj[v]} - owner.keys())
            if frontier:
                best = min(frontier, key=lambda w: (
                    -sum(1 for x in adj[w] if x in reg.qubits), pen[w], w))
                reg.qubits.add(best)
                owner[best] = reg.id
                progress = True
                continue
            stolen = _steal_leaf(reg, regions, owner, adj, pen, round_no, max_rounds)
            progress = progress or stolen
        if not progress:
            raise GrowthStuck("no legal claim or steal for any incomplete region")
    return regions


def _steal_leaf(reg: Region, regions, owner, adj, pen, round_no, max_rounds) -> bool:
    """Take a qubit from an adjacent region that is ahead of schedule.

    Leaves (degree-1 within the donor's induced subgraph) are preferred since
    they keep the donor connected for free; any other boundary qubit is
    eligible when an explicit check shows the donor stays connected without
    it (leafless donor shapes such as triangles would deadlock otherwise).
    """
    candidates = []
    for v in reg.qubits:
        for w in adj[v]:
            if w in reg.qubits or w not in owner:
                continue
            donor = regions[owner[w]]
            quota = math.ceil(donor.requested_size * min(round_no, max_rounds) / max_rounds)
            surplus = len(donor.qubits) > quota
            deg_inside = sum(1 for x in adj[w] if x in donor.qubits)
            rest = donor.qubits - {w}
            if rest and deg_inside != 1 and not _connected(rest, adj):
                continue
            if not surplus:
                # quota-locked donor: allow a push only when it can regrow
                # into free space right away, so lockstep sizing recovers;
                # displaced singletons relocate to a free neighbor instead
                if rest:
                    regrow = {x for u in rest for x in adj[u] if x not in owner}
                else:
                    regrow = {x for x in adj[w] if x not in owner}
                if not regrow:
                    continue
            candidates.append((w, donor, deg_inside, surplus))
    if not candidates:
        return False
    w, donor, _, _ = min(candidates, key=lambda t: (
        not t[3],     # true surplus donors first
        t[2] != 1,    # then leaves
        -sum(1 for x in adj[t[0]] if x in reg.qubits), pen[t[0]], t[0]))
    donor.qubits.discard(w)
    reg.qubits.add(w)
    owner[w] = reg.id
    if not donor.qubits:
        spot = min((x for x in adj[w] if x not in owner), key=lambda x: (pen[x], x))
        donor.qubits.add(spot)
        owner[spot] = donor.id
    return True


def _validate_regions(regions: list[Region], device: DeviceModel):
    seen: set[int] = set()
    adj = device.coupling.adjacency
    for reg in regions:
        if len(reg.qubits) != reg.requested_size:
            raise GrowthStuck(f"region {reg.id} has {len(reg.qubits)} qubits, "
                              f"requested {reg.requested_size}")
        if reg.qubits & seen:
            raise GrowthStuck(f"region {reg.id} overlaps another region")
        seen |= reg.qubits
        if not _connected(reg.qubits, adj):
            raise GrowthStuck(f"region {reg.id} is not connected")


def _connected(qubits: set[int], adj) -> bool:
    if not qubits:
        return False
    start = next(iter(qubits))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in qubits and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == qubits


def partition_device(sizes: list[int], device: DeviceModel) -> list[Region]:
    """Seed + grow + validate; sizes must be sorted descending."""
    seeds = seed_regions(sizes, device)
    regions = grow_regions(seeds, sizes, device)
    _validate_regions(regions, device)
    return regions


@dataclass
class SpaceShareResult:
    merged: Circuit
    regions: list[Region]
    reports: list[dict] = field(default_factory=list)
    per_circuit: list[dict] = field(default_factory=list)


def space_share(circuits: list[Circuit], device: DeviceModel,
                options: TranspileOptions) -> SpaceShareResult:
    """Partition the device, transpile each circuit inside its own region,
    and merge into one program on disjoint physical qubits and clbits.

    Regions are sized and grown largest-circuit-first; classical bits are
    stitched in the original circuit order, each block offset by the total
    clbit count of the earlier circuits. Each region is lowered on its own,
    which gives the same gates as lowering the merged program: lowering
    keeps its state per qubit and the regions are disjoint.
    """
    order = sorted(range(len(circuits)), key=lambda i: (-circuits[i].num_qubits, i))
    sizes = [circuits[i].num_qubits for i in order]
    regions = partition_device(sizes, device)
    for reg, idx in zip(regions, order):
        reg.circuit_index = idx

    merged_gates = []
    merged_meas = []
    reports = []
    per_circuit = [None] * len(circuits)
    clbit_offsets = []
    off = 0
    for circ in circuits:
        clbit_offsets.append(off)
        off += circ.num_clbits

    for reg in sorted(regions, key=lambda r: r.circuit_index):
        circ = circuits[reg.circuit_index]
        result = transpile(circ, device, options, region=sorted(reg.qubits))
        offset = clbit_offsets[reg.circuit_index]
        merged_gates += result.circuit.gates
        merged_meas += [(q, c + offset) for q, c in result.circuit.measurements]
        per_circuit[reg.circuit_index] = {
            "region": reg.id,
            "qubits": result.qubits,
            "initial_layout": result.initial_layout,
            "final_layout": result.final_layout,
            "swaps_inserted": result.swaps_inserted,
        }
        reports.append({
            "region_id": reg.id,
            "qubits": result.qubits,
            "seed": reg.seed_qubit,
            "circuit_file": circ.source_name,
        })

    merged = Circuit(device.num_qubits, merged_gates, merged_meas, source_name="space_share")
    return SpaceShareResult(merged, regions, sorted(reports, key=lambda r: r["region_id"]),
                            per_circuit)
