"""Gate library tests: matrices, arities, and composition expansions."""
import numpy as np
import pytest

from qasmtrans import gates
from qasmtrans.errors import UnknownGate

from conftest import phase_distance


def test_every_gate_matrix_is_unitary():
    rng = np.random.default_rng(0)
    for name, (nq, npar) in gates.GATE_INFO.items():
        params = tuple(rng.uniform(-np.pi, np.pi, npar))
        u = gates.matrix(name, params)
        assert u.shape == (1 << nq, 1 << nq)
        err = np.max(np.abs(u.conj().T @ u - np.eye(1 << nq)))
        assert err < 1e-10, name


def test_matrix_parts_are_shared_and_readonly():
    re1, im1 = gates.matrix_parts("h")
    re2, im2 = gates.matrix_parts("h")
    assert re1 is re2 and im1 is im2
    assert not re1.flags.writeable
    with pytest.raises(ValueError):
        re1[0, 0] = 5.0


def test_gate_matrix_is_built_on_first_read_only(monkeypatch):
    from qasmtrans.circuit import GateIR
    calls = []
    parts = gates.matrix_parts
    monkeypatch.setattr(gates, "matrix_parts", lambda *a: calls.append(a) or parts(*a))
    g = GateIR("rz", (0,), (0.25,))
    assert calls == []
    m = g.matrix
    assert g.matrix is m and g.remapped({0: 1}).matrix is m and len(calls) == 1
    assert not m.flags.writeable
    assert np.array_equal(m, np.diag([1, np.exp(0.25j)]))


@pytest.mark.parametrize("name", sorted(gates.COMPOSITION_GATES))
def test_expansion_matches_defining_matrix(name):
    rng = np.random.default_rng(hash(name) % 2**31)
    nq, npar = gates.GATE_INFO[name]
    params = tuple(rng.uniform(-np.pi, np.pi, npar))
    assert phase_distance(gates.matrix(name, params),
                          gates.defining_matrix(name, params)) < 1e-9


def test_expansion_children_are_not_composition_beyond_one_level():
    # after full recursion everything lands in the standard set
    def leaves(name, params, qubits):
        for child, cp, cq in gates.expand(name, params, qubits):
            if child in gates.COMPOSITION_GATES:
                yield from leaves(child, cp, cq)
            else:
                yield child
    for name in gates.COMPOSITION_GATES:
        nq, npar = gates.GATE_INFO[name]
        for leaf in leaves(name, (0.5,) * npar, tuple(range(nq))):
            assert leaf in gates.STANDARD_GATES


def test_ccx_expansion_shape():
    exp = gates.expand("ccx", (), (0, 1, 2))
    assert sum(1 for _, _, q in exp if len(q) == 2) == 6
    assert sum(1 for _, _, q in exp if len(q) == 1) == 9


def test_relative_phase_toffoli_has_ccx_magnitudes():
    assert np.allclose(np.abs(gates.matrix("rccx")),
                       np.abs(gates.defining_matrix("ccx")), atol=1e-12)


def test_unknown_gate():
    with pytest.raises(UnknownGate):
        gates.matrix("c4x")
    with pytest.raises(UnknownGate):
        gates.num_qubits_of("nope")


def test_rz_is_u1_form():
    u = gates.matrix("rz", (0.8,))
    assert u[0, 0] == 1.0
    assert abs(u[1, 1] - np.exp(0.8j)) < 1e-15


def test_iswap_and_ms_conventions():
    iswap = gates.matrix("iswap")
    assert iswap[1, 2] == 1j and iswap[2, 1] == 1j
    ms = gates.matrix("ms")
    xx = np.fliplr(np.eye(4))
    w, v = np.linalg.eigh(xx)
    expect = (v * np.exp(-1j * np.pi / 4 * w)) @ v.conj().T
    assert np.max(np.abs(ms - expect)) < 1e-12
