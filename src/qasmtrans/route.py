"""Sabre-style SWAP-insertion routing with an incremental front layer, and
user-guided qubit prioritization.

The front layer is maintained incrementally: executing a gate only touches
its successors, so the per-step cost tracks the active width of the circuit
instead of its total gate count. A rescan reference mode recomputes the
front from scratch after every step and must produce gate-identical output;
it exists for equivalence testing and for measuring the incremental win.

Scoring follows the classic decay heuristic: for a candidate swap s,
    score(s) = max(decay[a], decay[b]) * (sum_F D[pi(q1)][pi(q2)]
               + 0.5 * mean_E D[pi(q1)][pi(q2)])
over the front layer F and an extended lookahead set E (up to 20 gates),
with decay = 1 + 0.001 * uses, reset every 5 inserted SWAPs. Ties break by
a seeded splitmix64 hash, then by the lower edge index, so identical
(circuit, device, seed) inputs give byte-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, GateIR
from .device import DeviceModel
from .errors import Disconnected, NotAPermutation, TooManyQubits, UnsupportedGate


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
        self._build_dag()

    def _build_dag(self):
        n = len(self.gates)
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.preds: list[tuple] = [()] * n
        self.remaining_pred: list[int] = [0] * n
        self.executed = [False] * n
        last: dict[int, int] = {}
        for i, g in enumerate(self.gates):
            ps = {last[q] for q in g.qubits if q in last}
            self.preds[i] = tuple(ps)
            self.remaining_pred[i] = len(ps)
            for p in ps:
                self.succ[p].append(i)
            for q in g.qubits:
                last[q] = i
        self.front = {i for i in range(n) if self.remaining_pred[i] == 0}
        self.num_remaining = n
        self.pending = list(range(n))

    # --- front maintenance -------------------------------------------------

    def _advance(self, executed_nodes: list[int]):
        for node in executed_nodes:
            self.executed[node] = True
        self.num_remaining -= len(executed_nodes)
        if self.opts.front_mode == "rescan":
            # reference behaviour: walk every not-yet-executed node and
            # re-derive readiness from scratch
            executed = self.executed
            preds = self.preds
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
            self.front = front
        else:
            front = self.front
            rem = self.remaining_pred
            for node in executed_nodes:
                front.discard(node)
                for s in self.succ[node]:
                    rem[s] -= 1
                    if rem[s] == 0:
                        front.add(s)

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
        while self.front:
            execable = []
            blocked_pairs = []
            for node in sorted(self.front):
                g = self.gates[node]
                if g.is_barrier or len(g.qubits) == 1:
                    execable.append(node)
                else:
                    a, b = g.qubits
                    if dist[pi[a]][pi[b]] == 1:
                        execable.append(node)
                    else:
                        blocked_pairs.append((pi[a], pi[b]))
            if execable:
                for node in execable:
                    out.append(self.gates[node].remapped(pi))
                self._advance(execable)
                stall = 0
                continue
            # every front gate is a blocked two-qubit gate: insert one swap
            for pa, pb in blocked_pairs:
                if dist[pa][pb] == float("inf"):
                    raise Disconnected(
                        f"qubits {pa} and {pb} lie in different coupling components")
            stall += 1
            if stall > stall_cap:
                self._force_route(blocked_pairs[0], out)
                swaps += dist[blocked_pairs[0][0]][blocked_pairs[0][1]] - 1
                stall = 0
                continue
            active = {p for pair in blocked_pairs for p in pair}
            candidates = set()
            for p in active:
                for q in adjacency[p]:
                    candidates.add((min(p, q), max(p, q)))
            ext = self._extended_set()
            best = None
            for (a, b) in sorted(candidates):
                f_sum = 0
                for pa, pb in blocked_pairs:
                    qa = b if pa == a else a if pa == b else pa
                    qb = b if pb == a else a if pb == b else pb
                    f_sum += dist[qa][qb]
                e_sum = 0.0
                if ext:
                    for pa, pb in ext:
                        qa = b if pa == a else a if pa == b else pa
                        qb = b if pb == a else a if pb == b else pb
                        e_sum += dist[qa][qb]
                    e_sum /= len(ext)
                score = max(decay[a], decay[b]) * (f_sum + 0.5 * e_sum)
                tie = _splitmix64(self.seed ^ _splitmix64((swaps << 17) ^ (a << 8) ^ b))
                key = (score, tie, a, b)
                if best is None or key < best[0]:
                    best = (key, a, b)
            _, a, b = best
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

    def _extended_set(self) -> list[tuple[int, int]]:
        """Up to extended_set_size two-qubit successor gates of the front."""
        limit = self.opts.extended_set_size
        if limit <= 0:
            return []
        pi = self.pi
        seen = set()
        layer = sorted(self.front)
        ext: list[tuple[int, int]] = []
        while layer and len(ext) < limit:
            nxt = []
            for node in layer:
                for s in self.succ[node]:
                    if s in seen:
                        continue
                    seen.add(s)
                    g = self.gates[s]
                    if len(g.qubits) == 2 and not g.is_barrier:
                        ext.append((pi[g.qubits[0]], pi[g.qubits[1]]))
                        if len(ext) >= limit:
                            return ext
                    nxt.append(s)
            layer = nxt
        return ext

    def _emit_swap(self, a: int, b: int, out: list[GateIR]):
        out.append(GateIR("cx", (a, b)))
        out.append(GateIR("cx", (b, a)))
        out.append(GateIR("cx", (a, b)))

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
        if not g.is_barrier and g.num_qubits > 2:
            raise UnsupportedGate(f"{g.name} on {g.num_qubits} qubits; run decompose_3q first")
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
