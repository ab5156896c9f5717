"""Weyl-chamber decomposition and two-pulse Euler form tests."""
import math
import warnings

import numpy as np
import pytest

from qasmtrans import gates, kak
from qasmtrans.errors import DimensionMismatch

from conftest import phase_distance, random_unitary

PI4 = math.pi / 4


@pytest.mark.parametrize("name,matrix,coords", [
    ("identity", np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
    ("cnot", gates.matrix("cx"), (PI4, 0.0, 0.0)),
    ("cz", gates.defining_matrix("cz"), (PI4, 0.0, 0.0)),
    ("swap", gates.defining_matrix("swap"), (PI4, PI4, PI4)),
    ("iswap", gates.matrix("iswap"), (PI4, PI4, 0.0)),
])
def test_named_weyl_points(name, matrix, coords):
    wp = kak.kak_decompose(matrix)
    assert wp.coords == pytest.approx(coords, abs=1e-8)
    assert np.max(np.abs(wp.reconstruct() - matrix)) < 1e-8
    assert wp.lam in (1.0, 1j) or abs(wp.lam - 1) < 1e-12 or abs(wp.lam - 1j) < 1e-12


def test_identity_locals_are_trivial():
    wp = kak.kak_decompose(np.eye(4, dtype=complex))
    for k in (wp.k1, wp.k2, wp.k3, wp.k4):
        assert phase_distance(k, np.eye(2)) < 1e-9


def test_random_reconstruction_500():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        u = random_unitary(4, rng)
        wp = kak.kak_decompose(u)
        worst = max(worst, float(np.max(np.abs(wp.reconstruct() - u))))
        assert PI4 + 1e-9 >= wp.a >= wp.b >= abs(wp.c) - 1e-9
    assert worst < 1e-8


def test_coords_invariant_under_local_rotations():
    rng = np.random.default_rng(1)
    u = random_unitary(4, rng)
    base = kak.kak_decompose(u).coords
    for _ in range(20):
        pre = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        post = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        got = kak.kak_decompose(post @ u @ pre).coords
        assert got == pytest.approx(base, abs=1e-8)


def test_ks_are_unitary():
    rng = np.random.default_rng(5)
    for _ in range(50):
        wp = kak.kak_decompose(random_unitary(4, rng))
        for k in (wp.k1, wp.k2, wp.k3, wp.k4):
            assert np.max(np.abs(k.conj().T @ k - np.eye(2))) < 1e-9


def test_degenerate_spectra_handled():
    # tensor products and self-inverse gates stress the eigen-diagonalization
    rng = np.random.default_rng(7)
    for m in [np.kron(random_unitary(2, rng), random_unitary(2, rng)),
              gates.defining_matrix("swap"),
              gates.matrix("rzz", (math.pi / 2,)),
              np.kron(gates.matrix("h"), gates.matrix("h"))]:
        wp = kak.kak_decompose(m)
        assert np.max(np.abs(wp.reconstruct() - m)) < 1e-8


def test_kak_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        kak.kak_decompose(np.eye(2))


def test_weyl_gate_properties():
    w = kak.weyl_gate(PI4, 0, 0)
    assert kak.kak_decompose(w).coords == pytest.approx((PI4, 0, 0), abs=1e-9)
    assert kak.weyl_overlap((PI4, 0, 0), (PI4, 0, 0)) == pytest.approx(1.0)
    assert kak.weyl_overlap((0, 0, 0), (PI4, 0, 0)) < 1.0


# ---------------------------------------------------------------------------
# euler_two_pulse
# ---------------------------------------------------------------------------

def _two_pulse_reconstruct(t1, p1, t2, p2):
    return kak.phased_rotation(t2, p2) @ kak.phased_rotation(t1, p1)


def test_two_pulse_identity():
    t1, _p1, t2, _p2 = kak.euler_two_pulse(np.eye(2))
    assert t1 == 0.0 and t2 == 0.0


def test_two_pulse_rx_pi_single_axis():
    t1, p1, t2, _p2 = kak.euler_two_pulse(gates.matrix("rx", (math.pi,)))
    assert t2 == 0.0
    assert t1 == pytest.approx(math.pi)
    assert p1 == pytest.approx(0.0, abs=1e-9)


def test_two_pulse_hadamard():
    u = gates.matrix("h")
    rec = _two_pulse_reconstruct(*kak.euler_two_pulse(u))
    assert phase_distance(rec, u) < 1e-9


def test_two_pulse_z_rotation():
    u = gates.matrix("rz", (1.3,))
    t1, p1, t2, p2 = kak.euler_two_pulse(u)
    rec = _two_pulse_reconstruct(t1, p1, t2, p2)
    assert phase_distance(rec, u) < 1e-8


def test_two_pulse_random_500():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(500):
        u = random_unitary(2, rng)
        rec = _two_pulse_reconstruct(*kak.euler_two_pulse(u))
        worst = max(worst, phase_distance(rec, u))
    assert worst < 1e-9


def test_phased_rotation_axis():
    r = kak.phased_rotation(math.pi / 2, 0.0)
    assert phase_distance(r, gates.matrix("rx", (math.pi / 2,))) < 1e-12
    r = kak.phased_rotation(math.pi / 2, math.pi / 2)
    assert phase_distance(r, gates.matrix("ry", (math.pi / 2,))) < 1e-12


def test_kak_decompose_emits_no_deprecation_warning():
    rng = np.random.default_rng(21)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for _ in range(5):
            kak.kak_decompose(random_unitary(4, rng))
