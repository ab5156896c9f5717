"""Sabre-style SWAP-insertion routing with an incremental front layer, and
user-guided qubit prioritization.

The front layer is maintained incrementally by `ir.CircuitDag`: executing a
gate only touches its successors, so the per-step cost tracks the active
width of the circuit instead of its total gate count. A rescan reference
mode recomputes the front from scratch after every step and must produce
gate-identical output; it exists for equivalence testing and for measuring
the incremental win.

Scoring follows the classic decay heuristic: for a candidate swap s,
    score(s) = max(decay[a], decay[b]) * (sum_F D[pi(q1)][pi(q2)]
               + 0.5 * mean_E D[pi(q1)][pi(q2)])
over the front layer F and an extended lookahead set E (up to 20 gates),
with decay = 1 + 0.001 * uses, reset every 5 inserted SWAPs. Ties break by
a seeded splitmix64 hash, then by the lower edge index, so identical
(circuit, device, seed) inputs give byte-identical output.

The score is computed in delta form (as in LightSABRE): a swap on (a, b)
only changes the distance of pairs with an end on a or b, so each candidate
adds dist[new] - dist[old] over those pairs to the current integer sums.
The extended sum is divided by |E| once, so every score equals the direct
sum bit for bit. The hash is computed only when two or more candidates tie
at the minimum score. E depends on the front alone: its virtual pairs are
rebuilt when the front advances, and mapped through pi at each swap.

Executed gates are remapped inline. pi only changes between batches, so
each executable front gate gets its physical copy as the front is scanned:
a one-qubit gate through pi, a two-qubit gate from the physical pair it
was just distance-tested on. The copy is built with `GateIR.trusted` and
keeps the gate's matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import BARRIER, Circuit, GateIR
from .device import INF, DeviceModel
from .errors import Disconnected, NotAPermutation, TooManyQubits, UnsupportedGate
from .ir import CircuitDag


@dataclass
class Layout:
    """Bijection between virtual and physical qubits (phys side may have
    unassigned slots when the device is larger than the circuit)."""
    virt_to_phys: list[int]
    phys_to_virt: list

    @classmethod
    def identity(cls, n_virt: int, n_phys: int) -> "Layout":
        p2v: list = list(range(n_virt)) + [None] * (n_phys - n_virt)
        return cls(list(range(n_virt)), p2v)

    def copy(self) -> "Layout":
        return Layout(list(self.virt_to_phys), list(self.phys_to_virt))


@dataclass
class RoutingOptions:
    refinement_rounds: int = 0          # 0 or 3 forward/backward passes
    extended_set_size: int = 20
    decay_increment: float = 0.001
    decay_reset_interval: int = 5
    front_mode: str = "incremental"     # or "rescan" (reference implementation)


@dataclass
class RoutingResult:
    circuit: Circuit
    initial_layout: Layout
    final_layout: Layout
    swaps_inserted: int


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class _Router:
    """Single forward routing pass over a dependency DAG."""

    def __init__(self, circuit: Circuit, device: DeviceModel, seed: int,
                 opts: RoutingOptions, initial_virt_to_phys: list[int]):
        self.circuit = circuit
        self.device = device
        self.seed = seed if seed is not None else 0
        self.opts = opts
        self.n_virt = circuit.num_qubits
        self.n_phys = device.num_qubits
        # pad the virtual side so pi is a full permutation of the device
        pi = list(initial_virt_to_phys)
        used = set(pi)
        pi += [p for p in range(self.n_phys) if p not in used]
        self.pi = pi                       # virtual -> physical
        self.sigma = [0] * self.n_phys     # physical -> virtual
        for v, p in enumerate(pi):
            self.sigma[p] = v
        self.dist = device.coupling.distance_matrix
        self.gates = circuit.gates
        self.dag = CircuitDag(circuit)
        if opts.front_mode == "rescan":
            self.pending = list(range(len(self.gates)))

    # --- front maintenance -------------------------------------------------

    def _advance(self, executed_nodes: list[int]):
        dag = self.dag
        if self.opts.front_mode != "rescan":
            dag.advance_front(executed_nodes)
            return
        # reference behaviour: walk every not-yet-executed node and
        # re-derive readiness from scratch
        executed = dag.executed
        for node in executed_nodes:
            executed[node] = True
        dag.executed_count += len(executed_nodes)
        preds = dag.preds
        pending = [i for i in self.pending if not executed[i]]
        self.pending = pending
        front = set()
        for i in pending:
            ok = True
            for p in preds[i]:
                if not executed[p]:
                    ok = False
                    break
            if ok:
                front.add(i)
        dag.front = front

    # --- main loop ----------------------------------------------------------

    def run(self):
        out: list[GateIR] = []
        swaps: int = 0
        pi, sigma, dist = self.pi, self.sigma, self.dist
        opts = self.opts
        decay = [1.0] * self.n_phys
        swaps_since_reset = 0
        stall = 0
        stall_cap = 20 + 3 * self.n_phys
        adjacency = self.device.coupling.adjacency
        n_phys = self.n_phys
        dag = self.dag
        ext_version = -1                   # executed_count the cached extended set is for
        ext_virt: list[tuple[int, int]] = []
        gates_ = self.gates
        trusted = GateIR.trusted
        while dag.front:
            # executable gates go to out as found, in index order
            execable = []
            blocked_pairs = []
            for node in sorted(dag.front):
                g = gates_[node]
                qs = g.qubits
                if len(qs) == 1:
                    out.append(trusted(g.name, (pi[qs[0]],), g.params, g._matrix))
                elif g.name == BARRIER:
                    out.append(g.remapped(pi))
                else:
                    pa, pb = pi[qs[0]], pi[qs[1]]
                    if dist[pa][pb] != 1:
                        blocked_pairs.append((pa, pb))
                        continue
                    out.append(trusted(g.name, (pa, pb), g.params, g._matrix))
                execable.append(node)
            if execable:
                self._advance(execable)
                stall = 0
                continue
            # every front gate is a blocked two-qubit gate: insert one swap
            for pa, pb in blocked_pairs:
                if dist[pa][pb] == INF:
                    raise Disconnected(
                        f"qubits {pa} and {pb} lie in different coupling components")
            stall += 1
            if stall > stall_cap:
                self._force_route(blocked_pairs[0], out)
                swaps += dist[blocked_pairs[0][0]][blocked_pairs[0][1]] - 1
                stall = 0
                continue
            if dag.executed_count != ext_version:
                ext_version = dag.executed_count
                ext_virt = self._extended_pairs()
            # Delta scoring: a swap on (a, b) only moves the pairs with an end
            # on a or b, so each candidate adds dist[new] - dist[old] over
            # those to the base sums. A blocked pair's partner is unique per
            # qubit (front gates share no qubits); extended pairs may repeat.
            # A pair on both a and b keeps its distance and is skipped.
            f_partner = [-1] * n_phys
            f_base = 0
            for pa, pb in blocked_pairs:
                f_partner[pa] = pb
                f_partner[pb] = pa
                f_base += dist[pa][pb]
            e_partners: list[tuple[int, ...]] = [()] * n_phys
            e_base = 0
            for va, vb in ext_virt:
                pa, pb = pi[va], pi[vb]
                e_partners[pa] += (pb,)
                e_partners[pb] += (pa,)
                e_base += dist[pa][pb]
            n_ext = len(ext_virt)
            if e_base == INF:
                # a swap never joins two coupling components: the sum stays
                # infinite for every candidate, and its deltas would be nan
                e_partners = [()] * n_phys
            # candidates: every coupling edge on a blocked qubit a, each once
            best = INF
            ties: list[tuple[int, int]] = []
            for pair in blocked_pairs:
                for a in pair:
                    ya = f_partner[a]
                    da = dist[a]
                    ea = e_partners[a]
                    for b in adjacency[a]:
                        yb = f_partner[b]
                        if yb >= 0 and b < a:
                            continue            # scored from b's side
                        db = dist[b]
                        f_sum = f_base + db[ya] - da[ya]
                        if yb >= 0:
                            f_sum += da[yb] - db[yb]
                        e_sum = e_base
                        for y in ea:
                            if y != b:
                                e_sum += db[y] - da[y]
                        for y in e_partners[b]:
                            if y != a:
                                e_sum += da[y] - db[y]
                        if n_ext:
                            e_sum /= n_ext
                        w = decay[a] if decay[a] >= decay[b] else decay[b]
                        score = w * (f_sum + 0.5 * e_sum)
                        if score < best or not ties:
                            best = score
                            ties = [(a, b) if a < b else (b, a)]
                        elif score == best:
                            ties.append((a, b) if a < b else (b, a))
            if len(ties) == 1:
                a, b = ties[0]
            else:
                # seeded hash on ties only, then the lower edge
                _, a, b = min(
                    (_splitmix64(self.seed ^ _splitmix64((swaps << 17) ^ (a << 8) ^ b)), a, b)
                    for a, b in ties)
            self._emit_swap(a, b, out)
            swaps += 1
            va, vb = sigma[a], sigma[b]
            pi[va], pi[vb] = b, a
            sigma[a], sigma[b] = vb, va
            swaps_since_reset += 1
            if swaps_since_reset >= opts.decay_reset_interval:
                decay = [1.0] * self.n_phys
                swaps_since_reset = 0
            else:
                decay[a] += opts.decay_increment
                decay[b] += opts.decay_increment
        return out, swaps

    def _extended_pairs(self) -> list[tuple[int, int]]:
        """Virtual qubit pairs of up to extended_set_size two-qubit successor
        gates of the front, in breadth-first order. Depends on the front
        only, so run() calls it once per front advance, not per swap."""
        limit = self.opts.extended_set_size
        if limit <= 0:
            return []
        succ = self.dag.succ
        seen = set()
        layer = sorted(self.dag.front)
        ext: list[tuple[int, int]] = []
        while layer and len(ext) < limit:
            nxt = []
            for node in layer:
                for s in succ[node]:
                    if s in seen:
                        continue
                    seen.add(s)
                    g = self.gates[s]
                    if len(g.qubits) == 2 and g.name != BARRIER:
                        ext.append(g.qubits)
                        if len(ext) >= limit:
                            return ext
                    nxt.append(s)
            layer = nxt
        return ext

    def _emit_swap(self, a: int, b: int, out: list[GateIR]):
        trusted = GateIR.trusted
        out += (trusted("cx", (a, b)), trusted("cx", (b, a)), trusted("cx", (a, b)))

    def _force_route(self, pair: tuple[int, int], out: list[GateIR]):
        """Deterministic escape hatch: walk the blocked pair together along a
        shortest path. Only reachable on pathological decay cycles."""
        pa, pb = pair
        dist = self.dist
        while dist[pa][pb] > 1:
            step = min((q for q in self.device.coupling.adjacency[pa]
                        if dist[q][pb] < dist[pa][pb]))
            self._emit_swap(pa, step, out)
            va, vb = self.sigma[pa], self.sigma[step]
            self.pi[va], self.pi[vb] = step, pa
            self.sigma[pa], self.sigma[step] = vb, va
            pa = step


def sabre_route(circuit: Circuit, device: DeviceModel, seed: int = 0,
                opts: RoutingOptions | None = None) -> RoutingResult:
    """Route a 1/2-qubit circuit onto the device topology.

    Deterministic for fixed (circuit, device, seed). The initial layout is
    the identity, optionally refined by forward/backward passes when
    opts.refinement_rounds is set.
    """
    opts = opts or RoutingOptions()
    for g in circuit.gates:
        if len(g.qubits) > 2 and g.name != BARRIER:
            raise UnsupportedGate(f"{g.name} on {len(g.qubits)} qubits; run decompose_3q first")
    if circuit.num_qubits > device.num_qubits:
        raise TooManyQubits(
            f"circuit needs {circuit.num_qubits} qubits, device has {device.num_qubits}")

    initial = list(range(circuit.num_qubits))
    for _ in range(opts.refinement_rounds):
        fwd = _Router(circuit, device, seed, opts, initial)
        fwd.run()
        back_initial = [fwd.pi[v] for v in range(circuit.num_qubits)]
        rev = Circuit(circuit.num_qubits, list(reversed(circuit.gates)))
        bwd = _Router(rev, device, seed, opts, back_initial)
        bwd.run()
        initial = [bwd.pi[v] for v in range(circuit.num_qubits)]

    router = _Router(circuit, device, seed, opts, initial)
    out_gates, swaps = router.run()
    init_layout = Layout(list(initial),
                         _p2v(initial, circuit.num_qubits, device.num_qubits))
    final_v2p = [router.pi[v] for v in range(circuit.num_qubits)]
    final_layout = Layout(final_v2p, _p2v(final_v2p, circuit.num_qubits, device.num_qubits))
    meas = [(router.pi[q], c) for q, c in circuit.measurements]
    routed = Circuit(device.num_qubits, out_gates, meas, source_name=circuit.source_name)
    return RoutingResult(routed, init_layout, final_layout, swaps)


def _p2v(v2p: list[int], n_virt: int, n_phys: int) -> list:
    p2v: list = [None] * n_phys
    for v in range(n_virt):
        p2v[v2p[v]] = v
    return p2v


def prioritize_qubits(circuit: Circuit, priority_order: list[int]) -> tuple[Circuit, list[int]]:
    """Relabel so the i-th busiest qubit becomes priority_order[i].

    Gate counts are per-qubit participation counts; equal counts rank by
    ascending original index. Measurements are relabeled consistently.
    Returns the relabeled circuit and the permutation (old -> new qubit).
    """
    n = circuit.num_qubits
    if sorted(priority_order) != list(range(n)):
        raise NotAPermutation(f"priority order must be a permutation of 0..{n - 1}")
    counts = [0] * n
    for g in circuit.gates:
        for q in g.qubits:
            counts[q] += 1
    busy_first = sorted(range(n), key=lambda q: (-counts[q], q))
    perm = [0] * n
    for rank, q in enumerate(busy_first):
        perm[q] = priority_order[rank]
    return circuit.remapped(perm), perm
