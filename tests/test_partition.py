"""Space-sharing tests: penalty, seeding, lockstep growth, and merging."""
import numpy as np
import pytest

from qasmtrans import devicelib, oracle, partition, qasm
from qasmtrans.errors import IsolatedQubit, TooManyQubitsRequested
from qasmtrans.transpile import TranspileOptions
from qasmtrans.partition import (
    grow_regions,
    partition_device,
    penalty,
    seed_regions,
    space_share,
)


def _uniform_line(n, e1=0.01, e2=0.02):
    return devicelib.line(n, e1=e1, e2=e2)


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

def test_penalty_two_neighbors():
    dev = devicelib.line(3, e1=0.01)
    dev.calibration.e2[(0, 1)] = 0.02
    dev.calibration.e2[(1, 2)] = 0.04
    assert penalty(1, dev) == pytest.approx(0.01 + 0.03)


def test_penalty_zero():
    dev = devicelib.line(2, e1=0.0, e2=0.0)
    assert penalty(0, dev) == 0.0


def test_penalty_grid_center():
    dev = devicelib.grid(3, 3, e1=0.005, e2=0.02)
    assert len(dev.coupling.adjacency[4]) == 4
    assert penalty(4, dev) == pytest.approx(0.025)


def test_penalty_isolated_qubit():
    dev = devicelib.make_device("iso", 3, [(0, 1)])
    with pytest.raises(IsolatedQubit):
        penalty(2, dev)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_single_region_seed_is_global_argmin():
    dev = _uniform_line(6)
    dev.calibration.e1 = [0.05, 0.01, 0.002, 0.03, 0.04, 0.05]
    seeds = seed_regions([3], dev)
    pens = [penalty(q, dev) for q in range(6)]
    assert seeds == [min(range(6), key=lambda q: (pens[q], q))]


def test_two_seeds_on_chain_are_endpoints():
    dev = _uniform_line(6)
    seeds = seed_regions([3, 3], dev)
    assert seeds == [0, 5]


def test_seed_requests_exceeding_device():
    with pytest.raises(TooManyQubitsRequested):
        seed_regions([4, 3], _uniform_line(6))


def test_seed_requires_descending_sizes():
    with pytest.raises(TooManyQubitsRequested):
        seed_regions([2, 3], _uniform_line(6))


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def test_single_region_covers_device():
    dev = _uniform_line(5)
    regions = grow_regions(seed_regions([5], dev), [5], dev)
    assert regions[0].qubits == set(range(5))


def test_two_size3_regions_on_chain6():
    dev = _uniform_line(6)
    regions = partition_device([3, 3], dev)
    assert regions[0].qubits == {0, 1, 2}
    assert regions[1].qubits == {3, 4, 5}


def test_leaf_steal_keeps_both_regions_connected():
    # chain 0-1-2-3-4-5 with the small region seeded mid-chain: the large
    # region gets boxed in and must steal the donor's leaf qubits while the
    # donor regrows toward the free end
    dev = _uniform_line(6)
    regions = grow_regions([0, 2], [4, 2], dev)
    adj = dev.coupling.adjacency
    assert regions[0].qubits == {0, 1, 2, 3}
    assert regions[1].qubits == {4, 5}
    for reg in regions:
        assert len(reg.qubits) == reg.requested_size
        assert partition._connected(reg.qubits, adj)
    assert regions[0].qubits.isdisjoint(regions[1].qubits)


def test_partition_random_instances_valid():
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(6, 22))
        extra = {(int(min(a, b)), int(max(a, b)))
                 for a, b in rng.integers(0, n, size=(n, 2)) if a != b}
        edges = sorted(set((i, i + 1) for i in range(n - 1)) | extra)
        dev = devicelib.make_device(f"r{trial}", n, edges, jitter_seed=trial)
        budget = int(rng.integers(2, n + 1))
        sizes = []
        while budget > 0:
            s = int(rng.integers(1, budget + 1))
            sizes.append(s)
            budget -= s
        sizes.sort(reverse=True)
        regions = partition_device(sizes, dev)
        seen = set()
        for reg, size in zip(regions, sizes):
            assert len(reg.qubits) == size
            assert reg.qubits.isdisjoint(seen)
            seen |= reg.qubits
            assert partition._connected(reg.qubits, dev.coupling.adjacency)


def test_partition_deterministic():
    dev = devicelib.toronto27(jitter_seed=1)
    a = partition_device([9, 8, 6], dev)
    b = partition_device([9, 8, 6], dev)
    assert [r.qubits for r in a] == [r.qubits for r in b]


def test_partition_toronto_889():
    dev = devicelib.toronto27(jitter_seed=1)
    regions = partition_device([9, 8, 6], dev)
    assert [len(r.qubits) for r in regions] == [9, 8, 6]
    allq = set()
    for r in regions:
        assert partition._connected(r.qubits, dev.coupling.adjacency)
        assert r.qubits.isdisjoint(allq)
        allq |= r.qubits


# ---------------------------------------------------------------------------
# space_share
# ---------------------------------------------------------------------------

# the former keyword defaults of space_share: seed 0, noise-adaptive placement
# over at most 1000 embeddings per region
SHARE = TranspileOptions(basis="ibmq", noise_adaptive=True, placement_limit=1000)

def test_space_share_single_circuit_degenerate(circuits, line5):
    res = space_share([circuits["bell"]], line5, SHARE)
    assert len(res.regions) == 1
    used = {q for g in res.merged.gates for q in g.qubits}
    assert used <= res.regions[0].qubits


def test_space_share_two_bells_factorize(circuits):
    dev = devicelib.line(6)
    bell = circuits["bell"]
    res = space_share([bell, bell], dev, SHARE)
    merged = res.merged
    assert merged.num_qubits == 6
    regions = [info["qubits"] for info in res.per_circuit]
    assert set(regions[0]).isdisjoint(regions[1])
    # classical bits: second circuit offset by the first's clbit count
    clbits0 = {c for _, c in merged.measurements if c < 2}
    clbits1 = {c for _, c in merged.measurements if c >= 2}
    assert len(clbits0) == 2 and len(clbits1) == 2
    # simulate and compare against the tensor product of two Bell pairs
    psi = oracle.simulate(merged.without_measurements())
    t = psi.reshape([2] * 6)
    pair0 = [res.per_circuit[0]["final_layout"][v] for v in range(2)]
    pair1 = [res.per_circuit[1]["final_layout"][v] for v in range(2)]
    rest = [q for q in range(6) if q not in pair0 + pair1]
    t = np.transpose(t, pair0 + pair1 + rest).reshape(4, 4, -1)
    bell_state = np.zeros(4, dtype=complex)
    bell_state[0] = bell_state[3] = 1 / np.sqrt(2)
    expect = np.einsum("i,j->ij", bell_state, bell_state)
    got = t[:, :, 0]
    idx = np.argmax(np.abs(expect))
    phase = got.reshape(-1)[idx] / expect.reshape(-1)[idx]
    assert np.max(np.abs(got - phase * expect)) < 1e-10
    assert np.linalg.norm(t[:, :, 1:]) < 1e-10


def test_space_share_three_circuits_toronto(circuits, toronto):
    rng = np.random.default_rng(5)
    from conftest import random_circuit
    batch = [random_circuit(8, 30, rng, measure=True),
             random_circuit(6, 20, rng, measure=True),
             random_circuit(9, 35, rng, measure=True)]
    res = space_share(batch, toronto, TranspileOptions(basis="ibmq", placement_limit=1000))
    sizes = sorted((len(r.qubits) for r in res.regions), reverse=True)
    assert sizes == [9, 8, 6]
    seen = set()
    for r in res.regions:
        assert partition._connected(r.qubits, toronto.coupling.adjacency)
        assert r.qubits.isdisjoint(seen)
        seen |= r.qubits
    # merged program touches only region qubits and distinct clbits
    used = {q for g in res.merged.gates for q in g.qubits}
    assert used <= seen
    clbits = [c for _, c in res.merged.measurements]
    assert len(clbits) == len(set(clbits))


def test_space_share_report_schema(circuits, line5):
    res = space_share([circuits["bell"], circuits["bell"]], devicelib.line(6), SHARE)
    for entry in res.reports:
        assert sorted(entry) == ["circuit_file", "qubits", "region_id", "seed"]


def test_space_share_deterministic(circuits):
    dev = devicelib.line(6)
    bell = circuits["bell"]
    a = space_share([bell, bell], dev, SHARE)
    b = space_share([bell, bell], dev, SHARE)
    assert qasm.emit_qasm(a.merged) == qasm.emit_qasm(b.merged)
