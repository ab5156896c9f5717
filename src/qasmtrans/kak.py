"""Two-qubit KAK decomposition into Weyl-chamber canonical form, and the
two-pulse decomposition of single-qubit unitaries.

Any U in U(4) factors as

    U = lam * (K1 (x) K2) * exp(i (a XX + b YY + c ZZ)) * (K3 (x) K4)

with canonical coordinates folded into the chamber pi/4 >= a >= b >= |c|
(c may be negative only on the a = pi/4 face). The algorithm diagonalizes
U^T U in the magic (Bell) basis; degenerate spectra are handled by mixing
the real and imaginary parts of the symmetric matrix with seeded random
weights until a simultaneous eigenbasis is found.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import DimensionMismatch

_MAGIC = np.array(
    [[1, 1j, 0, 0],
     [0, 0, 1j, 1],
     [0, 0, 1j, -1],
     [1, -1j, 0, 0]], dtype=complex
) / math.sqrt(2)

_XX = np.fliplr(np.eye(4)).astype(complex)
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)

_IPX = np.array([[0, 1j], [1j, 0]], dtype=complex)
_IPY = np.array([[0, 1], [-1, 0]], dtype=complex)
_IPZ = np.array([[1j, 0], [0, -1j]], dtype=complex)


def weyl_gate(a: float, b: float, c: float) -> np.ndarray:
    """exp(i (a XX + b YY + c ZZ)), the nonlocal canonical gate."""
    return gates.expm_herm(a * _XX + b * _YY + c * _ZZ)


@dataclass
class WeylPoint:
    a: float
    b: float
    c: float
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    k4: np.ndarray
    lam: complex  # 1 or 1j

    @property
    def coords(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def reconstruct(self) -> np.ndarray:
        return self.lam * np.kron(self.k1, self.k2) @ weyl_gate(self.a, self.b, self.c) \
            @ np.kron(self.k3, self.k4)


def decompose_product(u4: np.ndarray, tol: float = 1e-9):
    """Split a tensor-product unitary into (left, right, phase) with
    u4 = exp(i phase) * (left (x) right) and left/right in SU(2)."""
    r = u4[:2, :2].copy()
    det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    if abs(det_r) < 0.1:
        r = u4[2:, :2].copy()
        det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    if abs(det_r) < 0.1:
        raise DimensionMismatch("matrix is not a tensor product of 1q unitaries")
    r /= np.sqrt(det_r)
    temp = u4 @ np.kron(np.eye(2), r.conj().T)
    left = temp[::2, ::2]
    det_l = left[0, 0] * left[1, 1] - left[0, 1] * left[1, 0]
    if abs(det_l) < 0.9:
        raise DimensionMismatch("matrix is not a tensor product of 1q unitaries")
    left /= np.sqrt(det_l)
    phase = cmath.phase(det_l) / 2
    if np.max(np.abs(np.exp(1j * phase) * np.kron(left, r) - u4)) > tol * 100:
        raise DimensionMismatch("product-state extraction failed")
    return left, r, phase


def kak_decompose(u: np.ndarray, rng_seed: int = 2020) -> WeylPoint:
    """Canonical two-qubit decomposition (see module docstring)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatch(f"expected 4x4 unitary, got {u.shape}")
    pi, pi2, pi4 = math.pi, math.pi / 2, math.pi / 4

    det_u = np.linalg.det(u)
    alpha = cmath.phase(det_u) / 4
    u_su = u * cmath.exp(-1j * alpha)
    global_phase = alpha

    up = _MAGIC.conj().T @ u_su @ _MAGIC
    m2 = up.T @ up

    # simultaneous diagonalization of the commuting real/imag parts
    state = np.random.default_rng(rng_seed)
    p = None
    for _ in range(100):
        mixed = state.normal() * m2.real + state.normal() * m2.imag
        _, p_try = np.linalg.eigh(mixed)
        d_try = p_try.T @ m2 @ p_try
        if np.allclose(d_try, np.diag(np.diagonal(d_try)), atol=1.0e-12):
            p = p_try
            break
    if p is None:
        raise DimensionMismatch("failed to diagonalize U^T U in the magic basis")
    d = np.diagonal(p.T @ m2 @ p)

    ang = -np.angle(d) / 2
    ang[3] = -ang[0] - ang[1] - ang[2]
    cs = np.mod((ang[:3] + ang[3]) / 2, 2 * pi)

    # order eigenvalues into a chamber-friendly arrangement
    cstemp = np.mod(cs, pi2)
    np.minimum(cstemp, pi2 - cstemp, out=cstemp)
    order = np.argsort(cstemp)[[1, 2, 0]]
    cs = cs[order]
    ang = ang.copy()
    ang[:3] = ang[order]
    p = p.copy()
    p[:, :3] = p[:, order]
    if np.linalg.det(p).real < 0:
        p[:, -1] = -p[:, -1]

    k1 = _MAGIC @ up @ p @ np.diag(np.exp(1j * ang)) @ _MAGIC.conj().T
    k2 = _MAGIC @ p.T @ _MAGIC.conj().T
    k1l, k1r, phase_l = decompose_product(k1)
    k2l, k2r, phase_r = decompose_product(k2)
    global_phase += phase_l + phase_r

    # reflect into the canonical chamber pi/4 >= a >= b >= |c|
    if cs[0] > pi2:
        cs[0] -= 3 * pi2
        k1l = k1l @ _IPY
        k1r = k1r @ _IPY
        global_phase += pi2
    if cs[1] > pi2:
        cs[1] -= 3 * pi2
        k1l = k1l @ _IPX
        k1r = k1r @ _IPX
        global_phase += pi2
    conjs = 0
    if cs[0] > pi4:
        cs[0] = pi2 - cs[0]
        k1l = k1l @ _IPY
        k2r = _IPY @ k2r
        conjs += 1
        global_phase -= pi2
    if cs[1] > pi4:
        cs[1] = pi2 - cs[1]
        k1l = k1l @ _IPX
        k2r = _IPX @ k2r
        conjs += 1
        global_phase += pi2
        if conjs == 1:
            global_phase -= pi
    if cs[2] > pi2:
        cs[2] -= 3 * pi2
        k1l = k1l @ _IPZ
        k1r = k1r @ _IPZ
        global_phase += pi2
        if conjs == 1:
            global_phase -= pi
    if conjs == 1:
        cs[2] = pi2 - cs[2]
        k1l = k1l @ _IPZ
        k2r = _IPZ @ k2r
        global_phase += pi2
    if cs[2] > pi4:
        cs[2] -= pi2
        k1l = k1l @ _IPZ
        k1r = k1r @ _IPZ
        global_phase -= pi2

    a, b, c = float(cs[1]), float(cs[0]), float(cs[2])

    if max(abs(a), abs(b), abs(c)) < 1e-10:
        # purely local gate: the eigenbasis is arbitrary, so extract the
        # tensor factors directly and keep the trailing locals trivial
        k1l, k1r, phase = decompose_product(u_su)
        lam, fold = _snap_phase(alpha + phase)
        return WeylPoint(0.0, 0.0, 0.0, k1l * fold, k1r,
                         np.eye(2, dtype=complex), np.eye(2, dtype=complex), lam)

    # fold the residual global phase into lam in {1, i} and the K's
    lam, fold = _snap_phase(global_phase)
    k1l = k1l * fold
    point = WeylPoint(a, b, c, k1l, k1r, k2l, k2r, lam)
    return point


def _snap_phase(phase: float) -> tuple[complex, complex]:
    """Split e^{i phase} into lam in {1, i} times a factor folded into K1."""
    quarter = round(phase / (math.pi / 2))
    residue = phase - quarter * (math.pi / 2)
    lam_pow = quarter % 4
    if lam_pow == 0:
        lam, sign = 1.0 + 0j, 1.0
    elif lam_pow == 1:
        lam, sign = 1j, 1.0
    elif lam_pow == 2:
        lam, sign = 1.0 + 0j, -1.0
    else:
        lam, sign = 1j, -1.0
    return lam, sign * cmath.exp(1j * residue)


def weyl_overlap(c1, c2) -> float:
    """Average-gate-fidelity between two canonical gates with the given
    Weyl coordinates; 1.0 iff the coordinates agree."""
    da, db, dc = (c1[0] - c2[0]), (c1[1] - c2[1]), (c1[2] - c2[2])
    tr = 4 * complex(
        math.cos(da) * math.cos(db) * math.cos(dc),
        math.sin(da) * math.sin(db) * math.sin(dc),
    )
    return (abs(tr) ** 2 + 4) / 20


# ---------------------------------------------------------------------------
# single-qubit two-pulse form
# ---------------------------------------------------------------------------

def phased_rotation(theta: float, phi: float) -> np.ndarray:
    """R_phi(theta): rotation by theta about the axis cos(phi) X + sin(phi) Y."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -1j * s * cmath.exp(-1j * phi)],
         [-1j * s * cmath.exp(1j * phi), c]]
    )


def euler_two_pulse(u: np.ndarray) -> tuple[float, float, float, float]:
    """(theta1, phi1, theta2, phi2) with U = R_phi2(theta2) R_phi1(theta1)
    up to global phase.

    Single equatorial rotations are returned directly with theta2 = 0;
    otherwise the symmetric solution theta1 = theta2 is used.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DimensionMismatch(f"expected 2x2 unitary, got {u.shape}")
    det = np.linalg.det(u)
    su = u * cmath.exp(-1j * cmath.phase(det) / 2)
    x, y = su[0, 0].real, su[0, 0].imag

    if abs(y) < 1e-14:
        # equatorial rotation (or identity): one pulse suffices
        if x < 0:
            su, x = -su, -x
        theta1 = 2 * math.atan2(abs(su[1, 0]), x)
        if abs(su[1, 0]) < 1e-14:
            return (0.0, 0.0, 0.0, 0.0)
        phi1 = -cmath.phase(su[1, 0]) - math.pi / 2
        return (theta1, _wrap(phi1), 0.0, 0.0)

    if 1 - x < 1e-14:
        return (0.0, 0.0, 0.0, 0.0)
    s_sq = ((1 - x) ** 2 + y * y) / (2 * (1 - x))
    s_sq = min(max(s_sq, 0.0), 1.0)
    theta = 2 * math.asin(math.sqrt(s_sq))
    c_half, s_half = math.cos(theta / 2), math.sin(theta / 2)
    if s_sq < 1e-14:
        return (0.0, 0.0, 0.0, 0.0)
    cos_d = (c_half * c_half - x) / s_sq
    sin_d = -y / s_sq
    delta = math.atan2(sin_d, cos_d)
    # phases fixed by the off-diagonal element; common shift rotates it freely
    p01_trial = -1j * (c_half * s_half * cmath.exp(-1j * delta) + s_half * c_half)
    target = su[0, 1]
    if abs(target) < 1e-14:
        shift = 0.0
    else:
        shift = cmath.phase(p01_trial) - cmath.phase(target)
    phi1, phi2 = _wrap(delta + shift), _wrap(shift)
    return (theta, phi1, theta, phi2)


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2 * math.pi) - math.pi
