"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 4 includes a 100k-gate rescan-reference run and takes
around half a minute by itself.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qasmtrans import (
    cli,
    devicelib,
    gates,
    ir,
    kak,
    oracle,
    place,
    pulse,
    pulsesim,
    qasm,
    route,
)
from qasmtrans.circuit import Circuit, GateIR
from qasmtrans.ir import DurationTable
from qasmtrans.lowering import lower
from qasmtrans.partition import partition_device, space_share, _connected
from qasmtrans.transpile import TranspileOptions, gc_paused

from conftest import FIXTURES, random_circuit, random_unitary

VENDOR_BASES = ["ibmq", "rigetti", "ionq", "quantinuum"]


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. equivalence soundness across the full pipeline
# ---------------------------------------------------------------------------

def test_criterion_01_equivalence_soundness(circuits):
    t0 = time.perf_counter()
    suite = [(name, c) for name, c in circuits.items()]
    rng = np.random.default_rng(101)
    for k in range(20):
        n = int(rng.integers(2, 9))
        suite.append((f"random{k}", random_circuit(n, int(rng.integers(10, 40)), rng)))
    worst = 0.0
    for name, circ in suite:
        n = circ.num_qubits
        dev = devicelib.ring(n) if n >= 3 else devicelib.line(max(n, 2))
        flat = ir.decompose_3q(circ)
        for basis in VENDOR_BASES:
            result = route.sabre_route(flat, dev, seed=0)
            lowered = lower(result.circuit, basis)
            ok, dev_val = oracle.pipeline_equivalent(
                circ, lowered,
                result.initial_layout.virt_to_phys,
                result.final_layout.virt_to_phys, tol=1e-8)
            worst = max(worst, dev_val)
            assert ok, (name, basis, dev_val)
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 60.0,
            f"pipeline equivalence on {len(suite)} circuits x {len(VENDOR_BASES)} bases, "
            f"worst dev {worst:.2e}, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Table-reported statistics
# ---------------------------------------------------------------------------

def test_criterion_02_statistics_reproduction(circuits):
    adder = ir.stats(circuits["adder_n4"])
    bv = ir.stats(circuits["bv_n14"])
    ok = (adder.depth, adder.total_gates, adder.one_qubit_gates) == (12, 27, 17) \
        and (bv.depth, bv.total_gates, bv.one_qubit_gates) == (17, 41, 28)
    _report(2, ok, f"adder_n4 {adder.depth}/{adder.total_gates}/{adder.one_qubit_gates} "
                   f"== 12/27/17; bv_n14 {bv.depth}/{bv.total_gates}/{bv.one_qubit_gates} == 17/41/28")


# ---------------------------------------------------------------------------
# 3. CCX decomposition shape
# ---------------------------------------------------------------------------

def test_criterion_03_ccx_decomposition():
    dec = ir.decompose_3q(Circuit(3).add("ccx", [0, 1, 2]))
    n1 = sum(1 for g in dec.gates if g.num_qubits == 1)
    n2 = sum(1 for g in dec.gates if g.num_qubits == 2)
    dev_val = oracle.phase_aligned_distance(oracle.circuit_unitary(dec),
                                            gates.defining_matrix("ccx"))
    ok = (n2, n1) == (6, 9) and dev_val < 1e-9
    _report(3, ok, f"ccx -> {n2} CX + {n1} 1q gates, unitary dev {dev_val:.2e} (< 1e-9)")


# ---------------------------------------------------------------------------
# 4. incremental-front Sabre: equivalence and speedup
# ---------------------------------------------------------------------------

def _layered_synthetic(n_qubits: int, n_gates: int, seed: int, p2: float = 0.12,
                       remote: float = 0.002) -> Circuit:
    rng = np.random.default_rng(seed)
    c = Circuit(n_qubits)
    while len(c.gates) < n_gates:
        order = rng.permutation(n_qubits)
        i = 0
        while i < n_qubits and len(c.gates) < n_gates:
            q = int(order[i])
            if i + 1 < n_qubits and rng.random() < p2:
                if rng.random() < remote:
                    a, b = sorted((q, int(order[i + 1])))
                else:
                    a, b = (min(q, int(order[i + 1])), min(q, int(order[i + 1])) + 1)
                    if b >= n_qubits:
                        a, b = n_qubits - 2, n_qubits - 1
                c.gates.append(GateIR("cx", (a, b)))
                i += 2
            else:
                name = ("rz", "sx", "x")[int(rng.integers(3))]
                params = (float(rng.uniform(-3, 3)),) if name == "rz" else ()
                c.gates.append(GateIR(name, (q,), params))
                i += 1
    return c


def test_criterion_04_incremental_sabre():
    # gate-identical output on 50 random circuits x 3 seeds
    rng = np.random.default_rng(4)
    dev_small = devicelib.grid(3, 3)
    for trial in range(50):
        c = random_circuit(int(rng.integers(3, 9)), int(rng.integers(15, 60)), rng)
        for seed in (0, 1, 2):
            a = route.sabre_route(c, dev_small, seed=seed)
            b = route.sabre_route(c, dev_small, seed=seed,
                                  opts=route.RoutingOptions(front_mode="rescan"))
            assert a.circuit.structurally_equal(b.circuit), (trial, seed)

    # wall-time contrast on a deep synthetic circuit
    big = _layered_synthetic(20, 100_000, seed=0)
    dev = devicelib.line(20)
    t0 = time.perf_counter()
    inc = route.sabre_route(big, dev, seed=0)
    t_inc = time.perf_counter() - t0
    t0 = time.perf_counter()
    res = route.sabre_route(big, dev, seed=0,
                            opts=route.RoutingOptions(front_mode="rescan"))
    t_res = time.perf_counter() - t0
    identical = inc.circuit.structurally_equal(res.circuit)
    ratio = t_res / t_inc
    ok = identical and ratio >= 5.0
    _report(4, ok, f"50x3 circuits gate-identical; 100k-gate run: incremental "
                   f"{t_inc:.2f}s vs rescan {t_res:.2f}s = {ratio:.0f}x (>= 5x)")


# ---------------------------------------------------------------------------
# 5. throughput sanity on a bwt-scale circuit
# ---------------------------------------------------------------------------

def test_criterion_05_throughput(tmp_path):
    rng = np.random.default_rng(7)
    n = 21
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
    count = 0
    while count < 87_000:
        order = rng.permutation(n)
        i = 0
        while i < n and count < 87_000:
            q = int(order[i])
            r = float(rng.random())
            if i + 1 < n and r < 0.25:
                p = int(order[i + 1])
                a, b = min(q, p), min(q, p) + 1
                if rng.random() < 0.004:
                    a, b = sorted((q, p))
                if b >= n:
                    a, b = n - 2, n - 1
                lines.append(f"cx q[{a}],q[{b}];")
                count += 1
                i += 2
            elif r < 0.6:
                lines.append(f"rz({rng.uniform(-3, 3)!r}) q[{q}];")
                count += 1
                i += 1
            else:
                lines.append(("sx" if r < 0.8 else "x") + f" q[{q}];")
                count += 1
                i += 1
    src = tmp_path / "bwt_scale_n21.qasm"
    src.write_text("\n".join(lines) + "\n")
    dev = devicelib.line(21)

    t0 = time.perf_counter()
    circ = qasm.parse_file(src)
    flat = ir.decompose_3q(circ)
    routed = route.sabre_route(flat, dev, seed=0)
    lowered = lower(routed.circuit, "ibmq")
    text = qasm.emit_qasm(lowered)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 10.0 and len(circ.gates) >= 87_000 and len(text) > 0
    _report(5, ok, f"{len(circ.gates)} gates on {n} qubits end-to-end in "
                   f"{elapsed:.2f}s (<= 10s), {routed.swaps_inserted} swaps")


# ---------------------------------------------------------------------------
# 6. placement heuristic exactness
# ---------------------------------------------------------------------------

def _brute_force_best(circ, dev):
    """Independent argmin: enumerate injections by permutation filtering."""
    import itertools
    ig = place.interaction_graph(circ)
    cp_gates, _ = place.critical_path(circ, DurationTable.for_device(dev))
    cal = dev.calibration
    best = None
    for perm in itertools.permutations(range(dev.num_qubits), len(ig.vertices)):
        m = dict(zip(ig.vertices, perm))
        if not all(dev.coupling.has_edge(m[a], m[b]) for a, b in ig.edges):
            continue
        total = 0.0
        for g in cp_gates:
            if g.num_qubits == 1:
                total += cal.e1[m[g.qubits[0]]]
            else:
                total += cal.edge_error(m[g.qubits[0]], m[g.qubits[1]])
        score = total / len(cp_gates) if cp_gates else 0.0
        key = (score, tuple(m.get(v, -1) for v in range(circ.num_qubits)))
        if best is None or key < best:
            best = key
    return best


def test_criterion_06_placement_exactness():
    rng = np.random.default_rng(6)
    devices = [devicelib.line(8, jitter_seed=1), devicelib.ring(10, jitter_seed=2),
               devicelib.grid(2, 5, jitter_seed=3)]
    checked = 0
    for trial in range(9):
        dev = devices[trial % 3]
        nq = int(rng.integers(2, 6))
        circ = route.sabre_route(random_circuit(nq, 14, rng, p_two=0.6), dev).circuit
        best, scored = place.select_placement(circ, dev, limit=200000)
        oracle_best = _brute_force_best(circ, dev)
        got = (best.score, tuple(-1 if p is None else p
                                 for p in best.mapping.virt_to_phys))
        assert abs(got[0] - oracle_best[0]) < 1e-15, (trial, got, oracle_best)
        assert got[1] == oracle_best[1], (trial, got, oracle_best)
        checked += 1

    # 8 circuit qubits on a 12-qubit device: independent simple-path oracle
    dev12 = devicelib.ring(12, jitter_seed=9)
    chain8 = Circuit(8)
    chain8.add("h", [0])
    for i in range(7):
        chain8.add("cx", [i, i + 1])
    best, scored = place.select_placement(chain8, dev12, limit=200000)
    paths = _all_simple_paths(dev12, 8)
    cp_gates, _ = place.critical_path(chain8, DurationTable.for_device(dev12))
    cal = dev12.calibration
    oracle_best = None
    for path in paths:
        total = 0.0
        for g in cp_gates:
            if g.num_qubits == 1:
                total += cal.e1[path[g.qubits[0]]]
            else:
                total += cal.edge_error(path[g.qubits[0]], path[g.qubits[1]])
        key = (total / len(cp_gates), tuple(path))
        if oracle_best is None or key < oracle_best:
            oracle_best = key
    assert abs(best.score - oracle_best[0]) < 1e-15
    assert tuple(best.mapping.virt_to_phys) == oracle_best[1]

    # argmin invariance under uniform scaling
    dev = devicelib.toronto27(jitter_seed=4)
    circ = route.sabre_route(random_circuit(4, 12, rng, p_two=0.6), dev).circuit
    b1, _ = place.select_placement(circ, dev, limit=2000)
    for q in range(dev.num_qubits):
        dev.calibration.e1[q] *= 2.5
    for key in dev.calibration.e2:
        dev.calibration.e2[key] *= 2.5
    b2, _ = place.select_placement(circ, dev, limit=2000)
    scale_ok = (b1.mapping.virt_to_phys == b2.mapping.virt_to_phys
                and abs(b2.score - 2.5 * b1.score) < 1e-12)
    _report(6, scale_ok, f"{checked}+1 instances match brute-force argmin to 1e-15; "
                         f"argmin invariant under uniform error scaling")


def _all_simple_paths(dev, length):
    paths = []
    adj = dev.coupling.adjacency

    def extend(path):
        if len(path) == length:
            paths.append(list(path))
            return
        for w in adj[path[-1]]:
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for start in range(dev.num_qubits):
        extend([start])
    return paths


# ---------------------------------------------------------------------------
# 7. partition validity
# ---------------------------------------------------------------------------

def test_criterion_07_partition_validity(circuits):
    rng = np.random.default_rng(20240817)
    solved = 0
    for trial in range(200):
        kind = trial % 4
        if kind == 0:
            r, c = int(rng.integers(2, 6)), int(rng.integers(3, 7))
            dev = devicelib.grid(r, c, jitter_seed=int(rng.integers(1e6)))
        elif kind == 1:
            n = int(rng.integers(8, 28))
            dev = devicelib.ring(n, jitter_seed=int(rng.integers(1e6)))
        elif kind == 2:
            dev = devicelib.toronto27(jitter_seed=int(rng.integers(1e6)))
        else:
            n = int(rng.integers(8, 28))
            edges = set((i, i + 1) for i in range(n - 1))
            extra = {(int(min(a, b)), int(max(a, b)))
                     for a, b in rng.integers(0, n, size=(n // 2, 2)) if a != b}
            dev = devicelib.make_device("x", n, sorted(edges | extra),
                                        jitter_seed=int(rng.integers(1e6)))
        n = dev.num_qubits
        occupancy = rng.uniform(0.4, 0.85)
        budget = max(2, int(n * occupancy))
        sizes = []
        while budget > 0:
            s = int(rng.integers(1, min(budget, max(2, n // 2)) + 1))
            sizes.append(s)
            budget -= s
        sizes.sort(reverse=True)
        regions = partition_device(sizes, dev)
        seen = set()
        for reg, size in zip(regions, sizes):
            assert len(reg.qubits) == size
            assert reg.qubits.isdisjoint(seen)
            assert _connected(reg.qubits, dev.coupling.adjacency)
            seen |= reg.qubits
        solved += 1

    # merged two-Bell program factorizes under oracle simulation
    bell = circuits["bell"]
    res = space_share([bell, bell], devicelib.line(6),
                      TranspileOptions(basis="ibmq", noise_adaptive=True, placement_limit=1000))
    psi = oracle.simulate(res.merged.without_measurements())
    t = psi.reshape([2] * 6)
    pair0 = [res.per_circuit[0]["final_layout"][v] for v in range(2)]
    pair1 = [res.per_circuit[1]["final_layout"][v] for v in range(2)]
    rest = [q for q in range(6) if q not in pair0 + pair1]
    t = np.transpose(t, pair0 + pair1 + rest).reshape(4, 4, -1)
    bell_state = np.zeros(4, dtype=complex)
    bell_state[0] = bell_state[3] = 1 / math.sqrt(2)
    expect = np.outer(bell_state, bell_state)
    got = t[:, :, 0]
    phase = got.reshape(-1)[0] / expect.reshape(-1)[0]
    amp_err = max(float(np.max(np.abs(got - phase * expect))),
                  float(np.linalg.norm(t[:, :, 1:])))
    ok = solved == 200 and amp_err <= 1e-10
    _report(7, ok, f"{solved}/200 random partitions valid; two-Bell factorization "
                   f"amplitude error {amp_err:.1e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# 8. pulse-simulator physics
# ---------------------------------------------------------------------------

def test_criterion_08_pulse_physics():
    timings = {}
    drifts = []

    # (b) T1 population decay
    t0 = time.perf_counter()
    kappa = 0.002
    m = pulsesim.PulseModel(1, kappa=[kappa], dt_ns=0.5)
    horizon = 400.0
    rho = pulsesim.lindblad_evolve(m, np.diag([0.0, 1.0]).astype(complex), horizon)
    drifts.append(abs(np.trace(rho).real - 1))
    t1_err = abs(rho[1, 1].real - math.exp(-kappa * horizon))
    timings["t1"] = time.perf_counter() - t0

    # (c) zero-noise Lindblad equals unitary conjugation
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    m = pulsesim.PulseModel(2, pairs=[(0, 1)], dt_ns=0.02)
    for q in range(2):
        m.i_ctrl[q].add_constant(0, 25, float(rng.uniform(-0.25, 0.25)))
        m.q_ctrl[q].add_constant(0, 25, float(rng.uniform(-0.25, 0.25)))
    m.j_ctrl[(0, 1)].add_constant(0, 25, 0.06)
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    rho0 = np.outer(psi, psi.conj())
    rho = pulsesim.lindblad_evolve(m, rho0, 25.0)
    drifts.append(abs(np.trace(rho).real - 1))
    u = pulsesim.propagate(m, 25.0)
    closed_err = float(np.max(np.abs(rho - u @ rho0 @ u.conj().T)))
    timings["closed"] = time.perf_counter() - t0

    # (d) Rabi pi pulse
    t0 = time.perf_counter()
    omega = 0.25
    m = pulsesim.PulseModel(1)
    m.i_ctrl[0].add_constant(0, math.pi / omega, omega)
    rabi_err = oracle.phase_aligned_distance(
        pulsesim.propagate(m, math.pi / omega), gates.matrix("x"))
    timings["rabi"] = time.perf_counter() - t0

    # (e) free (XX+YY)/2 evolution at T = pi/(2g)
    t0 = time.perf_counter()
    g = 0.05
    m = pulsesim.PulseModel(2, pairs=[(0, 1)])
    horizon = math.pi / (2 * g)
    m.j_ctrl[(0, 1)].add_constant(0, horizon, g)
    u = pulsesim.propagate(m, horizon)
    xxyy = 0.5 * g * (np.kron(pulsesim.SX, pulsesim.SX) + np.kron(pulsesim.SY, pulsesim.SY))
    w, v = np.linalg.eigh(xxyy)
    analytic = (v * np.exp(-1j * w * horizon)) @ v.conj().T
    iswap_err = float(np.max(np.abs(u - analytic)))
    timings["iswap"] = time.perf_counter() - t0

    ok = (max(drifts) <= 1e-8 and t1_err <= 1e-4 and closed_err <= 1e-8
          and rabi_err <= 1e-6 and iswap_err <= 1e-5
          and all(t < 5.0 for t in timings.values()))
    _report(8, ok, f"trace drift {max(drifts):.1e}<=1e-8, T1 {t1_err:.1e}<=1e-4, "
                   f"closed {closed_err:.1e}<=1e-8, Rabi {rabi_err:.1e}<=1e-6, "
                   f"iSWAP {iswap_err:.1e}<=1e-5, slowest run {max(timings.values()):.1f}s<5s")


# ---------------------------------------------------------------------------
# 9. fidelity formulas
# ---------------------------------------------------------------------------

def test_criterion_09_fidelity_formulas():
    f_xi = pulsesim.avg_gate_fidelity(gates.matrix("x"), np.eye(2))
    exact = abs(f_xi - 1.0 / 3.0) <= 1e-15
    mixed = pulsesim.state_fidelity(np.eye(2) / 2, np.array([1.0, 0.0]))
    rng = np.random.default_rng(9)
    invariant = True
    for _ in range(50):
        u = random_unitary(4, rng)
        alpha = float(rng.uniform(0, 2 * math.pi))
        invariant &= abs(pulsesim.avg_gate_fidelity(u, np.exp(1j * alpha) * u) - 1.0) < 1e-12
        psi = random_unitary(2, rng)[:, 0]
        rho = np.outer(psi, psi.conj())
        val = pulsesim.state_fidelity(rho, psi * np.exp(1j * alpha))
        invariant &= abs(val - 1.0) < 1e-12
        f = pulsesim.avg_gate_fidelity(random_unitary(2, rng), random_unitary(2, rng))
        invariant &= 1 / 3 - 1e-12 <= f <= 1 + 1e-12
    ok = exact and mixed == pytest.approx(0.5) and invariant
    _report(9, ok, f"F(X,I)={f_xi!r} == 1/3 to 1e-15; F(I/2,psi)={mixed}; "
                   f"phase/normalization invariants hold")


# ---------------------------------------------------------------------------
# 10. KAK correctness
# ---------------------------------------------------------------------------

def test_criterion_10_kak():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(500):
        u = random_unitary(4, rng)
        wp = kak.kak_decompose(u)
        worst = max(worst, float(np.max(np.abs(wp.reconstruct() - u))))
    pi4 = math.pi / 4
    named_ok = True
    for mat, want in [(gates.matrix("cx"), (pi4, 0, 0)),
                      (gates.defining_matrix("swap"), (pi4, pi4, pi4)),
                      (gates.matrix("iswap"), (pi4, pi4, 0))]:
        got = kak.kak_decompose(mat).coords
        named_ok &= all(abs(a - b) < 1e-8 for a, b in zip(got, want))
    ok = worst < 1e-8 and named_ok
    _report(10, ok, f"500 random SU(4) reconstructions worst {worst:.1e} (< 1e-8); "
                    f"CNOT/SWAP/iSWAP at canonical Weyl points")


# ---------------------------------------------------------------------------
# 11. AshN calibration at desk scale
# ---------------------------------------------------------------------------

def test_criterion_11_ashn():
    dev = devicelib.line(7, basis="rigetti_pulse", t1_us=20.0, t2_us=15.0)
    lib = pulse.PulseLibrary.for_device(dev)
    entry = pulse.synthesize_ashn(gates.matrix("cx"), g=lib.g, budget=300, seed=0,
                                  max_drive=0.5)
    noiseless_ok = entry.fidelity >= 0.999

    ghz = Circuit(3).add("h", [0]).add("cx", [0, 1]).add("cx", [1, 2])
    kappa = {q: 1.0 / (dev.calibration.t1_us[q] * 1000.0) for q in range(3)}
    gamma = {q: pulsesim.dephasing_rate(dev.calibration.t1_us[q] * 1000.0,
                                        dev.calibration.t2_us[q] * 1000.0)
             for q in range(3)}

    def simulate_fidelity(schedule):
        model, _ = pulse.schedule_to_model(schedule, 3, active=[0, 1, 2],
                                           kappa=kappa, gamma=gamma, dt_ns=0.2)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        rho = pulsesim.lindblad_evolve(model, rho0, schedule.makespan_ns)
        corr = pulse.frame_correction(schedule, 3, [0, 1, 2])
        rho = corr @ rho @ corr.conj().T
        return pulsesim.state_fidelity(rho, oracle.simulate(ghz))

    baseline = pulse.build_schedule(lower(ghz, "rigetti_pulse"), lib)
    f_base = simulate_fidelity(baseline)
    lib.add_ags("cx", (0, 1), entry)
    lib.add_ags("cx", (1, 2), entry)
    ags_circ = lower(ghz, "rigetti_pulse", keep={("cx", (0, 1)), ("cx", (1, 2))})
    ags_sched = pulse.build_schedule(ags_circ, lib)
    f_ags = simulate_fidelity(ags_sched)

    ok = (noiseless_ok and ags_sched.makespan_ns < baseline.makespan_ns
          and f_ags >= f_base)
    _report(11, ok, f"noiseless CNOT F={entry.fidelity:.4f} (>= 0.999); GHZ-3 makespan "
                    f"{baseline.makespan_ns:.0f} -> {ags_sched.makespan_ns:.0f} ns, "
                    f"fidelity {f_base:.4f} -> {f_ags:.4f} (not reduced)")


# ---------------------------------------------------------------------------
# 12. AGS ranking
# ---------------------------------------------------------------------------

def test_criterion_12_ags_ranking():
    pi2 = math.pi / 2
    c = Circuit(3)
    for block in range(3):
        c.add("iswap", [0, 1])
        c.add("rx", [0], (pi2,))
        c.add("iswap", [0, 1])
        if block < 2:
            c.add("iswap", [1, 2])
    durations = {"rx": 10.0, "iswap": 40.0, "rz": 0.0}
    out = pulse.ags_candidates(c, durations)
    exact = (out[0].qubits == (0, 1) and out[0].count == 3
             and out[0].cumulative_latency_ns == 270.0
             and out[1].cumulative_latency_ns == 80.0)

    def chain(blocks):
        cc = Circuit(2)
        for _ in range(blocks):
            cc.add("rx", [0], (pi2,))
            cc.add("iswap", [0, 1])
        return cc

    pulse.ags_candidates(chain(500), durations)  # warm up
    chains = {blocks: chain(blocks) for blocks in (2000, 4000)}
    best = dict.fromkeys(chains, math.inf)
    # as in a CLI run, where the cyclic collector is paused; the two sizes
    # take turns, so host load lands on both alike
    with gc_paused():
        for _ in range(9):
            for blocks, cc in chains.items():
                t0 = time.perf_counter()
                pulse.ags_candidates(cc, durations)
                best[blocks] = min(best[blocks], time.perf_counter() - t0)
    scaling = best[4000] / best[2000]
    ok = exact and scaling <= 2.5
    _report(12, ok, f"constructed ranking matches hand-computed latencies; "
                    f"2x path length costs {scaling:.2f}x (<= 2.5x)")


# ---------------------------------------------------------------------------
# 13. round-trip and determinism
# ---------------------------------------------------------------------------

def test_criterion_13_roundtrip_determinism(circuits, tmp_path):
    for name, circ in circuits.items():
        again = qasm.parse_text(qasm.emit_qasm(circ))
        assert again.structurally_equal(circ), name

    dev_path = tmp_path / "dev.json"
    dev_path.write_text(devicelib.toronto27(jitter_seed=11).to_json())
    payloads = []
    for run in range(2):
        out = tmp_path / f"run{run}.qasm"
        rc = cli.main(["-i", str(FIXTURES / "qec_n5.qasm"), "-d", str(dev_path),
                       "-b", "rigetti", "-o", str(out), "--seed", "3",
                       "--noise-adaptive"])
        assert rc == 0
        summary = json.loads(Path(str(out) + ".summary.json").read_text())
        del summary["timings_ms"]  # wall-clock timings are the only varying field
        payloads.append((out.read_bytes(), json.dumps(summary, sort_keys=True)))
    ok = payloads[0] == payloads[1]
    _report(13, ok, "parse/emit round-trip on all fixtures; identical CLI invocations "
                    "produce byte-identical artifacts")
