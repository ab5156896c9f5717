"""Ideal statevector simulator and circuit-equivalence checker.

This is the verification backbone for every transpilation pass: gate
matrices are applied exactly, so any pass can be checked for unitary
equivalence up to a layout permutation and a global phase.

States, unitaries and probe sets are all one tensor shape, [2]*n + [batch]
(one column per state), evolved by `gates.apply_matrix`. Layout
permutations are applied as axis transposes, never as dense operators, and
the statevector probes of `pipeline_equivalent` run as one batch.

Qubit 0 is the most significant bit of the state index, matching the
matrix convention in gates.py.
"""
from __future__ import annotations

import numpy as np

from . import gates
from .circuit import Circuit
from .errors import DimensionMismatch, TooManyQubits

MAX_SIM_QUBITS = 14
MAX_UNITARY_QUBITS = 7


def zero_state(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def _evolve(circuit: Circuit, t: np.ndarray) -> np.ndarray:
    """Run the gate list over t, shaped [2]*n + [batch]."""
    for g in circuit.gates:
        if not g.is_barrier:
            t = gates.apply_matrix(t, g.matrix, g.qubits)
    return t


def _check_sim_cap(n: int):
    if n > MAX_SIM_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds simulate cap {MAX_SIM_QUBITS}")


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve a statevector through the circuit's gate list.

    Measurements are terminal in this representation, so they never
    interleave with gates; the returned state is pre-measurement."""
    n = circuit.num_qubits
    _check_sim_cap(n)
    if initial is None:
        state = zero_state(n)
    else:
        state = np.array(initial, dtype=complex).reshape(-1)
        if state.size != 1 << n:
            raise DimensionMismatch(f"initial state has {state.size} amplitudes, expected {1 << n}")
    return _evolve(circuit, state.reshape([2] * n + [1])).reshape(-1)


def circuit_unitary(circuit: Circuit, max_qubits: int = MAX_UNITARY_QUBITS) -> np.ndarray:
    """Full unitary of the gate list, built by batched column simulation."""
    n = circuit.num_qubits
    if n > max_qubits:
        raise TooManyQubits(f"{n} qubits exceeds unitary cap {max_qubits}")
    dim = 1 << n
    return _evolve(circuit, np.eye(dim, dtype=complex).reshape([2] * n + [dim])).reshape(dim, dim)


def permutation_matrix(perm) -> np.ndarray:
    """Operator P with P|x_0 x_1 ...> = |y> where bit perm[i] of y is bit i of x.

    perm maps source qubit position -> destination qubit position.
    """
    n = len(perm)
    dim = 1 << n
    p = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        dst = 0
        for i in range(n):
            bit = (src >> (n - 1 - i)) & 1
            dst |= bit << (n - 1 - perm[i])
        p[dst, src] = 1.0
    return p


def permute_state(state: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits of a state: qubit i of the input becomes qubit perm[i]."""
    n = len(perm)
    t = state.reshape([2] * n)
    axes = [0] * n
    for i in range(n):
        axes[perm[i]] = i
    return t.transpose(axes).reshape(-1)


def _relabel(u: np.ndarray, rows, cols) -> np.ndarray:
    """P(rows)^dag u P(cols), with P(perm) = permutation_matrix(perm), as an
    axis transpose of u instead of two dense products."""
    n = u.shape[0].bit_length() - 1
    if sorted(rows) != list(range(n)) or sorted(cols) != list(range(n)):
        raise DimensionMismatch(f"layout is not a permutation of 0..{n - 1}")
    axes = list(rows) + [n + c for c in cols]
    return u.reshape([2] * (2 * n)).transpose(axes).reshape(u.shape)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - e^{i phi} b| with phi estimated from the largest entry of b."""
    idx = np.argmax(np.abs(b))
    ref = b.reshape(-1)[idx]
    if abs(ref) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase = a.reshape(-1)[idx] / ref
    if abs(phase) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase /= abs(phase)
    return float(np.max(np.abs(a - phase * b)))


def equivalent(c1: Circuit, c2: Circuit, layout_perm=None, tol: float = 1e-8):
    """Whether c2, relabeled through the layout permutation, equals c1 up to
    a global phase: P^dag U2 P = e^{i phi} U1 with P mapping qubit i of c1
    onto qubit layout_perm[i] of c2.

    Returns (bool, max deviation). Measurements are stripped; the layout's
    measurement remapping is checked structurally by callers. Routed
    circuits with distinct initial and final layouts go through
    pipeline_equivalent instead.
    """
    if c1.num_qubits != c2.num_qubits:
        raise DimensionMismatch("qubit counts differ")
    u1 = circuit_unitary(c1)
    u2 = circuit_unitary(c2)
    if layout_perm is not None:
        u2 = _relabel(u2, layout_perm, layout_perm)
    dev = phase_aligned_distance(u2, u1)
    return dev <= tol, dev


def pipeline_equivalent(original: Circuit, routed: Circuit, initial_layout,
                        final_layout, tol: float = 1e-8, num_states: int = 3,
                        seed: int = 7):
    """Equivalence of a routed/lowered circuit against its source.

    The routed circuit acts on physical qubits; virtual qubit v enters at
    physical initial_layout[v] and exits at final_layout[v]. Small cases are
    checked at the unitary level, larger ones on |0..0> plus random product
    states (statevector probes).

    Returns (bool, max deviation).
    """
    n = original.num_qubits
    big_n = routed.num_qubits
    active = {q for g in routed.gates for q in g.qubits}
    active |= {initial_layout[v] for v in range(n)}
    active |= {final_layout[v] for v in range(n)}
    if len(active) < big_n:
        # untouched physical qubits stay in |0>; compact them away
        order = sorted(active)
        back = {q: i for i, q in enumerate(order)}
        routed = Circuit(len(order), [g.remapped(back) for g in routed.gates])
        initial_layout = [back[initial_layout[v]] for v in range(n)]
        final_layout = [back[final_layout[v]] for v in range(n)]
        big_n = len(order)
    if n > MAX_UNITARY_QUBITS or big_n > MAX_UNITARY_QUBITS:
        return _state_probe_equivalent(original, routed, initial_layout,
                                       final_layout, tol, num_states, seed)
    u1 = circuit_unitary(original)
    if big_n > n:
        u1 = np.kron(u1, np.eye(1 << (big_n - n)))
    pad = [initial_layout[v] for v in range(n)]
    pad += sorted(set(range(big_n)) - set(pad))
    pad_f = [final_layout[v] for v in range(n)]
    pad_f += sorted(set(range(big_n)) - set(pad_f))
    lhs = _relabel(circuit_unitary(routed), pad_f, pad)
    dev = phase_aligned_distance(lhs, u1)
    return dev <= tol, dev


def _state_probe_equivalent(original, routed, initial_layout, final_layout,
                            tol, num_states, seed):
    """Run |0..0> and num_states random product states through both
    circuits as one batch; the deviation is the worst over all probes."""
    n = original.num_qubits
    big_n = routed.num_qubits
    _check_sim_cap(n)
    _check_sim_cap(big_n)
    rng = np.random.default_rng(seed)
    slot = {initial_layout[v]: v for v in range(n)}
    refs, embs = [], []
    for trial in range(num_states + 1):
        if trial == 0:
            local = [np.array([1.0, 0.0], dtype=complex)] * n
        else:
            local = []
            for _ in range(n):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                local.append(v / np.linalg.norm(v))
        psi = local[0]
        for v in local[1:]:
            psi = np.kron(psi, v)
        refs.append(psi)
        # embed: virtual qubit v sits at physical initial_layout[v], rest |0>
        emb = np.array([1.0], dtype=complex)
        for p in range(big_n):
            emb = np.kron(emb, local[slot[p]] if p in slot else np.array([1.0, 0.0]))
        embs.append(emb)
    batch = len(refs)
    ref = _evolve(original, np.stack(refs, axis=-1).reshape([2] * n + [batch]))
    ref = ref.reshape(1 << n, batch)
    out = _evolve(routed, np.stack(embs, axis=-1).reshape([2] * big_n + [batch]))
    # pull virtual qubits back out of their final physical slots
    order = [final_layout[v] for v in range(n)]
    order += sorted(set(range(big_n)) - set(order))
    t = out.transpose(order + [big_n]).reshape(1 << n, -1, batch)
    worst = 0.0
    for j in range(batch):
        # unused physical qubits must remain |0>
        rest_norm = float(np.linalg.norm(t[:, 1:, j]))
        worst = max(worst, phase_aligned_distance(t[:, 0, j], ref[:, j]), rest_norm)
    return worst <= tol, worst
