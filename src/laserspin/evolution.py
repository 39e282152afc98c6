"""Density-matrix propagation and the analytic propagator factorization.

Numeric path
------------
:func:`propagate` integrates the propagator dU/dt = -i H(t) U (not rho)
over a time grid and returns the (N, 4, 4) stack of U(t_k), by
fourth-order Magnus steps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151 (2009)): over an interval of length h, with H1 and H2 the values of
H at its two Gauss-Legendre nodes, U_step = exp(-i K) with

    K = h/2 (H1 + H2) + i sqrt(3) h^2/12 [H1, H2].

The steps are uniform over the whole span: n = 8, 16, ... steps, until
U at the nodes of the n/2-step grid moves by at most max(7.5 tol,
4e-15 n) when the step is halved; 4e-15 n is the roundoff of n steps.
For a fourth-order step the error of the n-step grid is about that
change / (2^4 - 1) (Richardson; Hairer, Nørsett & Wanner, Solving
Ordinary Differential Equations I, Sec. II.4), so the accepted grid
carries about tol / 2 against a tight reference.  U at the
nodes is the prefix product of the steps, formed pairwise in 2 log2 n
batched matmuls and projected once per halving round by a Newton step
of the polar projection.  Each sample off the grid nodes then takes
one more step, from the node before it; a sample on a node takes U
there.  A Hamiltonian source maps an (m,) array of times to their
(m, 4, 4) stack, or to one constant 4x4, and is asked for at most 512
times per call, in no particular order.  Every factor is the
exponential of a Hermitian matrix, so U stays unitary to roundoff and
rho(t) = U rho(0) U^+ keeps Hermiticity, trace and positivity
structurally; the halving test's error estimate sets the accuracy.
:func:`evolve_von_neumann` forms the whole stack of states in one
broadcast product, and :func:`validate_density_matrix` checks a single
state or every sample of such a stack.

Periodic drives
---------------
H_S(t) depends on t only through sn, cn and dn of u = w'_L t, so it has
the exact motion period T = 4 K(mu) / w'_L, and so does H'_I.  Bx and Bz
are even in t and By is odd, so H_S is also time-reversal symmetric,
H_S(-t) = H_S(t)*, at every eps; so are H'_I and V, because
sin(theta_minus) and psi are odd and s3(x)s2 - s2(x)s3 is imaginary
(pinned at 1e-14 for `spin_hamiltonian` at three drives and for
`interaction_picture_hamiltonian` and `interaction_term`).  Passing T to
:func:`propagate` asserts both, H(t + T) = H(t) and H(-t) = H(t)*.  Then
U(-s) = U(s)*, the second half period is the first one reversed, and
one run over [0, T/2] gives every sample (Floquet; Shirley, Phys. Rev.
138, B979 (1965)):

    U(T) = A^T A,              A = U(T/2),
    U(m T + r) = V(r) U(T)^m,  m = rint(t / T),  |r| <= T/2,

with V(r) = U(|r|), conjugated when r < 0.  A and every U(|r|) are
samples of that one run, and U(T) is projected once by the polar step,
so H is asked for times in [0, T/2] only; a run that stays within
[0, T] is the direct run unchanged.  Errors add along the products: with e_h the error of
the half run, U(T) carries 2 e_h and U(m T + r) carries
(2 m + 1) e_h <= (2 t / T + 2) e_h.  The half run is therefore asked for
tol T / (2 t_end), the direct run's error budget over half a period, and
delivers about half that (above), so every sample carries about
(t_end + T) / (2 t_end) tol < tol, while the cost grows only like
(t_end / T)^(1/4).  The powers U(T)^m are matrix products, never an
eigendecomposition, because at Delta = 0 U(T) has a degenerate triplet
whose eigenvectors `eig` need not return orthogonal.  All distinct m
are powered at once, bit by bit: at bit b every power whose m has bit b
set takes one factor U(T)^(2^b), and that factor is squared for the
next bit.  A Newton step of the polar projection after every one of
these products keeps unitarity at roundoff, so only the phases carry
the roundoff of the products: 1e-16 m to 4e-16 m against 40-digit
powers of the same U(T), for m from 10 to 10^5.

Analytic path (linear polarization only)
----------------------------------------
Each function below takes a float time (psi for the Eulerian form),
giving a float or a matrix, or an array of shape S, giving an array of
shape S or a stack of shape S + the matrix shape.  For eps = 0 the
single-spin precessions factor out exactly:

    U(t) = W(t) X(t),          W = U^(n) (x) U^(p),
    U^(i)(t) = exp(i theta^(i)(t) sigma_1 / 2),

with the precession angle the exact integral of the effective field,

    2 theta^(i) = eta (gtilde^(i) + 1) sn(u, mu)
                  - (eta gamma_z / mu) arcsin(mu sn(u, mu)).

The residual factor obeys dX/dt = -i H'_I X with the closed form
H'_I = W^+ H_I W, which :func:`time_ordered_X` integrates by
:func:`propagate` over a whole time grid at once.  For analysis, X
splits further as X = exp(-i (g/4) psi(t) S) Y(t),
S = sum_k sigma_k (x) sigma_k and
psi(t) = int_0^t cos(theta_minus); Y is the time-ordered exponential of
the rotating-frame coupling

    V(t) = (g/4) [ (1 - cos th_-) s1(x)s1
                   + sin th_- (cos(g psi) (s3(x)s2 - s2(x)s3)
                               - sin(g psi) (s1(x)1 - 1(x)s1)) ],

which vanishes identically when the two rescaled gyromagnetic ratios are
equal.  The factorization oracle of `laserspin validate` checks both
U = W X against the direct integration of H_S and this split against
the integration of V over a full period, to 1e-6.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .elliptic import complete_K, jacobi
from .errors import DomainError, IntegratorError, InvalidStateError
from .pauli import (IDENTITY4, PAIR, SIGMA0, SIGMA1, SIGMA_10, SIGMA_32,
                    SIGMA_DOT_SIGMA, hermiticity_defect)
from .spinfield import BoundStateParams
from .trajectory import KinematicParams, LaserParams, _asinc

HamiltonianSource = Callable[[np.ndarray], np.ndarray]

# the tolerances every propagation accepts, exclusive bounds
TOL_BOUNDS = (1e-14, 1e-4)
# tolerance of the X factor, well below the 1e-6 gate of U = W X
_X_TOL = 1e-12
# steps on the finest uniform grid of one integration; 8 192 is the most
# a test needs
MAX_STEPS = 2**16
# the accepted change of U under halving, in units of tol: for a
# fourth-order step the fine grid's error is about change / (2^4 - 1)
# (Hairer, Nørsett & Wanner, Solving ODEs I, II.4), so 7.5 tol delivers
# about tol / 2; 15 tol measured up to 0.975 tol against DOP853
_ACCEPT_CHANGE = 7.5
# the two Gauss-Legendre nodes of [0, 1]
_GL2 = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
# intervals per H call, so at most 512 times per call, which the H-call
# contract states; batched 4x4 matmul and eigh cost a flat 0.5 and 5-6 us
# per matrix from 256 to 32 768 matrices, on one thread, and one call for a
# whole grid of 512 to 65 536 steps was no faster (6-10 us a step either way)
_CHUNK = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_TOL = -1e-10


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check the two-qubit state invariants, returning rho as complex ndarray.

    rho is a 4x4 matrix or an (N, 4, 4) stack of them.  Raises
    InvalidStateError unless every entry is finite and every matrix is
    Hermitian to 1e-12, unit-trace to 1e-12 and PSD to -1e-10; for a
    stack the message names the first failing sample.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise InvalidStateError(
            f"density matrix must be 4x4 or a stack of 4x4, got {rho.shape}")
    InvalidStateError.unless(np.isfinite(rho).all(axis=(-2, -1)),
                             "density matrix has a non-finite entry")
    InvalidStateError.unless(hermiticity_defect(rho) <= _HERM_TOL,
                             "density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    InvalidStateError.unless((abs(trace.real - 1.0) <= _TRACE_TOL)
                             & (abs(trace.imag) <= _TRACE_TOL),
                             "density matrix trace differs from 1")
    InvalidStateError.unless(np.linalg.eigvalsh(rho).min(axis=-1) >= _PSD_TOL,
                             "density matrix has a negative eigenvalue")
    return rho


def expm_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(-1j * H) for Hermitian H, or for each matrix of a stack of them,
    via eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _check_tol(tol: float) -> float:
    if not (TOL_BOUNDS[0] < tol < TOL_BOUNDS[1]):
        raise DomainError(f"tolerance must lie in {TOL_BOUNDS}, got {tol}")
    return float(tol)


@np.errstate(over="ignore", invalid="ignore")     # K is checked
def _magnus4(H_of_t: HamiltonianSource, starts: np.ndarray,
             lengths: np.ndarray) -> np.ndarray:
    """The Magnus steps exp(-i K) over the intervals [a, a + h], a stack.

    K = h/2 (H1 + H2) + i sqrt(3) h^2/12 [H1, H2], with H1 and H2 the
    values of H at the two Gauss-Legendre nodes of the interval.  H is
    asked for at most _CHUNK intervals per call.  Raises DomainError,
    naming the first interval, when K is not finite.
    """
    out = np.empty((starts.size, 4, 4), dtype=complex)
    for i in range(0, starts.size, _CHUNK):
        a, h = starts[i:i + _CHUNK], lengths[i:i + _CHUNK]
        times = (a[:, None] + h[:, None] * _GL2).ravel()
        H = np.broadcast_to(H_of_t(times), (times.size, 4, 4))
        H1, H2, hm = H[0::2], H[1::2], h[:, None, None]
        K = (0.5 * hm) * (H1 + H2) \
            + (1j * math.sqrt(3.0) / 12.0 * hm * hm) * (H1 @ H2 - H2 @ H1)
        bad = np.flatnonzero(~np.isfinite(K).all(axis=(-2, -1)))
        if bad.size:
            j = bad[0]
            raise DomainError(f"Magnus exponent is not finite on "
                              f"[{a[j]:.6g}, {a[j] + h[j]:.6g}]")
        out[i:i + _CHUNK] = expm_hermitian(K)
    return out


def period_tolerance(tol: float, period: float, span: float) -> float:
    """Tolerance of the half-period run that composes a run over span > period.

    tol * period / (2 span), the direct run's error budget over half a
    period: U(T/2) then carries e_h = tol T / (2 span), and a sample at
    t = m T + r carries at most (2 m + 1) e_h <= (t + T) / span tol, of
    which the halving test delivers about half (module docstring).
    Raises DomainError when it is not above the floor TOL_BOUNDS[0], so
    a span of more than tol / 2e-14 periods.
    """
    tol_half = 0.5 * tol * (period / span)
    if not tol_half > TOL_BOUNDS[0]:
        raise DomainError(
            f"{span / period:.6g} periods leave tol * T / (2 t_end) = "
            f"{tol_half:.3g} for half of one, not above {TOL_BOUNDS[0]}")
    return tol_half


def propagate(H_of_t: HamiltonianSource, t_grid: Sequence[float],
              tol: float, period: float | None = None) -> np.ndarray:
    """Propagators U(t_k) of dU/dt = -i H(t) U, U(0) = 1, on a time grid.

    H_of_t maps an (m,) array of times to their (m, 4, 4) stack, or to
    one 4x4 matrix when H is constant; each call asks for at most 512
    times, in no particular order.  t_grid must start at 0 and increase
    strictly; the result has shape (len(t_grid), 4, 4).  The uniform
    steps are halved until U moves by at most max(7.5 tol, 4e-15 n),
    which puts the Richardson estimate of the error, that change / 15,
    at tol / 2 (module docstring), so U is delivered within tol.  A
    sample costs two H times but no steps, or nothing when it lies on a
    grid node.  Raises IntegratorError when the step size underflows or
    MAX_STEPS steps do not pass the halving test, and DomainError when a
    Magnus exponent is not finite (H overflows).

    Passing the period T asserts H(t + T) = H(t) and H(-t) = H(t)*, as
    `spin_hamiltonian`, `interaction_picture_hamiltonian` and
    `interaction_term` satisfy (module docstring).  When a sample lies
    beyond T, only [0, T/2] is integrated, at tol * T / (2 t_grid[-1]),
    and H is asked for no time outside it: with m = rint(t / T) the
    nearest multiple and r = t - m T,
    U(t) = V(r) U(T)^m, V(r) = U(|r|) conjugated when r < 0, and
    U(T) = U(T/2)^T U(T/2).  Each sample then carries about
    (t_grid[-1] + T) / (2 t_grid[-1]) tol.  When no sample lies beyond T
    the result is the one without a period, bit for bit.  Raises
    DomainError when tol * T / (2 t_grid[-1]) is not above the tolerance
    floor (:func:`period_tolerance`).
    """
    tol = _check_tol(tol)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0.0:
        raise DomainError("time grid must start at 0")
    if not (np.all(np.diff(t_grid) > 0.0) and np.isfinite(t_grid[-1])):
        raise DomainError("time grid must be strictly increasing and finite")
    if period is not None and not (period > 0.0 and math.isfinite(period)):
        raise DomainError(f"period must be positive and finite, got {period}")
    if period is None or t_grid[-1] <= period:
        return _propagate_grid(H_of_t, t_grid, tol)

    tol_half = period_tolerance(tol, period, t_grid[-1])
    half = 0.5 * period
    # the nearest multiple m of T and the offset r = t - m T; roundoff can
    # put |r| just beyond T/2, which is taken back to the end of the run
    m = np.rint(t_grid / period)
    r = t_grid - m * period
    inner, where = np.unique(np.append(np.minimum(np.abs(r), half), half),
                             return_inverse=True)
    Us = _propagate_grid(H_of_t, inner, tol_half)
    A = Us[where[-1]]
    offsets = Us[where[:-1]]
    offsets[r < 0.0] = offsets[r < 0.0].conj()         # U(-s) = U(s)*
    # U(T)^m for every distinct m at once, bit by bit, from the projected
    # squares U(T)^(2^b); no eig, which the Delta = 0 triplet defeats
    levels, level_of = np.unique(m.astype(np.int64), return_inverse=True)
    powers = np.broadcast_to(IDENTITY4, (levels.size, 4, 4)).copy()
    square = _polar_step(A.T @ A)                # U(T)^(2^b) at bit b
    for b in range(int(levels[-1]).bit_length()):
        has_bit = (levels >> b & 1).astype(bool)
        powers[has_bit] = _polar_step(powers[has_bit] @ square)
        square = _polar_step(square @ square)
    return offsets @ powers[level_of]


def _polar_step(U: np.ndarray) -> np.ndarray:
    """One Newton step of the polar projection of a near-unitary U, or of
    each matrix of a stack of them: it removes the unitarity defect that
    the roundoff of a product of unitaries builds up, to second order."""
    G = U.conj().swapaxes(-1, -2) @ U
    np.subtract(3.0 * IDENTITY4, G, out=G)
    G = U @ G
    G *= 0.5
    return G


def _prefix_product(S: np.ndarray) -> np.ndarray:
    """Overwrite a stack whose length is a power of two with its prefix
    products S[j] ... S[0], later factors on the left, and return it.

    A work-efficient scan (Blelloch, CMU-CS-90-190, 1990) in place: the
    products of adjacent pairs overwrite the odd slots, which the
    recursion turns into the odd prefixes, and then the even prefixes
    overwrite the even slots from 2 on; about 2 len(S) matmuls in
    2 log2 len(S) batched calls.  Each prefix is a product of at most
    2 log2 len(S) factors.
    """
    if len(S) > 1:
        np.matmul(S[1::2], S[0::2], out=S[1::2])
        _prefix_product(S[1::2])                       # P[2k + 1]
        np.matmul(S[2::2], S[1:-1:2], out=S[2::2])     # P[2k + 2]
    return S


def _propagate_grid(H_of_t: HamiltonianSource, t_grid: np.ndarray,
                    tol: float) -> np.ndarray:
    """The Magnus steps of :func:`propagate` over a checked time grid."""
    if t_grid.size == 1:
        return IDENTITY4[None].copy()
    span, n, coarse, err = t_grid[-1], 8, None, math.inf
    while True:
        h = span / n
        if not h >= np.finfo(float).tiny:
            raise IntegratorError(
                f"step size underflow at t = 0 (h = {h:.3e})")
        # the steps are copied into the nodes and scanned there in place,
        # so the round keeps no stack of its own beside U and the coarse U
        U = np.empty((n + 1, 4, 4), dtype=complex)
        U[0] = IDENTITY4
        U[1:] = _magnus4(H_of_t, h * np.arange(n), np.full(n, h))
        _prefix_product(U[1:])
        # projected in slices, so that G and U G never span the grid
        for i in range(1, n + 1, _CHUNK):
            U[i:i + _CHUNK] = _polar_step(U[i:i + _CHUNK])
        if coarse is not None:
            # the global roundoff of n steps floors the attainable change
            err = float(np.abs(U[::2] - coarse).max())
            if err <= max(_ACCEPT_CHANGE * tol, 4e-15 * n):
                break
        if 2 * n > MAX_STEPS:
            raise IntegratorError(
                f"{MAX_STEPS} steps on [0, {span:.6g}] do not reach tol "
                f"{tol:.3g}: halving the step still changes U by {err:.3e}")
        n, coarse = 2 * n, U
    # U at the node at or before each sample, and one more step for each
    # sample off the nodes
    k = np.floor(t_grid / h).astype(np.int64)
    tail = t_grid - k * h
    off = tail != 0.0
    out = U[k]
    out[off] = _magnus4(H_of_t, k[off] * h, tail[off]) @ U[k[off]]
    return out


def evolve_von_neumann(rho0: np.ndarray, H_of_t: HamiltonianSource,
                       t_grid: Sequence[float], tol: float = 1e-9,
                       period: float | None = None) -> np.ndarray:
    """Solve d rho/dt = -i [H(t), rho] on the given time grid, with H_of_t
    an (m,) array of times in, their (m, 4, 4) stack out (:func:`propagate`).

    Returns the (len(t_grid), 4, 4) stack of density matrices, one per
    grid time (the first grid time must be 0 and yields the validated
    initial state, a single 4x4 matrix).  The states are rho0 conjugated
    with the stack of propagators in one broadcast product, so trace and
    spectrum are preserved structurally.  period, the period of H, is
    passed to :func:`propagate`.
    """
    rho0 = validate_density_matrix(rho0)
    if rho0.ndim != 2:
        raise InvalidStateError(
            f"initial state must be one 4x4 matrix, got {rho0.shape}")
    Us = propagate(H_of_t, t_grid, tol, period)
    return Us @ rho0 @ Us.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# analytic factorization, linear polarization
# ---------------------------------------------------------------------------

def _require_linear(laser: LaserParams) -> None:
    if laser.epsilon != 0.0:
        raise DomainError(
            "the analytic factorization is only available for linear "
            f"polarization (epsilon = 0), got epsilon = {laser.epsilon}"
        )


def precession_angle(t, which: str, laser: LaserParams,
                     kin: KinematicParams, bound: BoundStateParams):
    """Exact accumulated precession angle theta^(i)(t), eps = 0 only.

    This is the running integral of the x-component of the effective
    field; at gamma_z = 1 it reduces to
    2 theta = eta (gtilde + 1) sn - arcsin(mu sn).
    """
    _require_linear(laser)
    gt = bound.gtilde(which)
    eta, gz, mu = laser.eta, kin.gamma_z, kin.mu
    sn = jacobi(kin.omega_L_prime * t, mu).sn
    return 0.5 * eta * ((gt + 1.0) * sn - gz * _asinc(mu, sn))


def theta_minus(t, laser: LaserParams, kin: KinematicParams,
                bound: BoundStateParams):
    """Angle difference theta^(n) - theta^(p) = (eta Delta / 2) sn(u, mu)."""
    _require_linear(laser)
    sn = jacobi(kin.omega_L_prime * t, kin.mu).sn
    return 0.5 * laser.eta * bound.Delta * sn


def psi_integral(t, laser: LaserParams, kin: KinematicParams,
                 bound: BoundStateParams):
    """psi(t) = int_0^t cos(theta_minus(s)) ds, by composite Gauss-Legendre.

    16 nodes per panel; a panel spans a quarter period of sn divided by
    1 + eta |Delta| / 2, the amplitude of theta_minus, so that the
    integrand's oscillations stay resolved at strong drive.  Every time of
    an array takes the panel count of the largest |t|.
    """
    _require_linear(laser)
    t = np.asarray(t, dtype=float)
    quarter = complete_K(kin.mu) / kin.omega_L_prime
    amplitude = 0.5 * abs(laser.eta * bound.Delta)
    n_panels = max(1, math.ceil(np.abs(t).max() / quarter * (1.0 + amplitude)))
    half = 0.5 * t / n_panels
    nodes = half[..., None, None] * (2.0 * np.arange(n_panels)[:, None]
                                     + 1.0 + _GL_NODES)
    values = np.cos(theta_minus(nodes, laser, kin, bound))
    return half * np.sum(values @ _GL_WEIGHTS, axis=-1)


def _matrix_axes(x) -> np.ndarray:
    """x with two trailing unit axes, to scale constant matrices."""
    return np.asarray(x, dtype=float)[..., None, None]


def single_spin_propagator(t, which: str, laser: LaserParams,
                           kin: KinematicParams,
                           bound: BoundStateParams) -> np.ndarray:
    """U^(i)(t) = exp(i theta^(i) sigma_1 / 2), eps = 0 only."""
    th = precession_angle(_matrix_axes(t), which, laser, kin, bound)
    return np.cos(0.5 * th) * SIGMA0 + 1j * np.sin(0.5 * th) * SIGMA1


def local_propagator(t, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams) -> np.ndarray:
    """W(t) = U^(n)(t) (x) U^(p)(t)."""
    un = single_spin_propagator(t, "n", laser, kin, bound)
    up = single_spin_propagator(t, "p", laser, kin, bound)
    return (un[..., :, None, :, None] * up[..., None, :, None, :]).reshape(
        un.shape[:-2] + (4, 4))


def interaction_picture_hamiltonian(t, laser: LaserParams,
                                    kin: KinematicParams,
                                    bound: BoundStateParams) -> np.ndarray:
    """H'_I(t) = W^+(t) H_I W(t), in closed form.

    Rotating both spins about x by their respective angles leaves the
    s1(x)s1 part alone and mixes the rest through theta_minus:

        H'_I = (g/4) [ s1(x)s1 + cos th_- (s2(x)s2 + s3(x)s3)
                       + sin th_- (s3(x)s2 - s2(x)s3) ].
    """
    g = bound.g_coupling
    thm = theta_minus(_matrix_axes(t), laser, kin, bound)
    return (g / 4.0) * (PAIR[1, 1] + np.cos(thm) * (PAIR[2, 2] + PAIR[3, 3])
                        + np.sin(thm) * SIGMA_32)


def euler_representation(psi) -> np.ndarray:
    """Closed form of exp(i psi sum_k sigma_k (x) sigma_k).

    exp(i psi S) = (1/2) e^{i psi} + (1/2) e^{-i psi} [cos 2psi
    + i S sin 2psi]; eigenvalues e^{i psi} (x3) and e^{-3 i psi}.
    """
    psi = _matrix_axes(psi)
    if not np.isfinite(psi).all():
        raise DomainError(
            f"psi must be finite, got {psi[~np.isfinite(psi)][0]}")
    return (0.5 * np.exp(1j * psi) * IDENTITY4
            + 0.5 * np.exp(-1j * psi)
            * (np.cos(2.0 * psi) * IDENTITY4
               + 1j * np.sin(2.0 * psi) * SIGMA_DOT_SIGMA))


def interaction_term(t, laser: LaserParams, kin: KinematicParams,
                     bound: BoundStateParams) -> np.ndarray:
    """Rotating-frame coupling V(t) whose ordered exponential is Y(t).

    Identically zero when Delta = 0.  psi(t) is integrated afresh on
    every call.
    """
    g = bound.g_coupling
    t = _matrix_axes(t)
    thm = theta_minus(t, laser, kin, bound)
    psi = psi_integral(t, laser, kin, bound)
    return (g / 4.0) * ((1.0 - np.cos(thm)) * PAIR[1, 1]
                        + np.sin(thm) * (np.cos(g * psi) * SIGMA_32
                                         - np.sin(g * psi) * SIGMA_10))


def time_ordered_X(t_grid: Sequence[float], laser: LaserParams,
                   kin: KinematicParams, bound: BoundStateParams) -> np.ndarray:
    """Interaction-picture factor X of U = W X on a time grid, eps = 0 only.

    t_grid follows the rules of :func:`propagate` and the result is the
    (len(t_grid), 4, 4) stack.  Integrates dX/dt = -i H'_I X, X(0) = 1,
    with the closed-form :func:`interaction_picture_hamiltonian` in one
    :func:`propagate` run at tolerance 1e-12.
    """
    _require_linear(laser)
    H = lambda s: interaction_picture_hamiltonian(s, laser, kin, bound)
    return propagate(H, t_grid, _X_TOL)


def perturbative_delta_rho_werner(t: float, p: float, laser: LaserParams,
                                  bound: BoundStateParams) -> np.ndarray:
    """Leading-order state change of a Werner state under the laser.

    Equals i [V(t), rho_W] with the leading-order inputs
    theta_minus = (eta Delta / 2) sin(w_L t) and psi = t:

        delta rho = -(p g / 4) sin(th_-) [cos(g t) (s1(x)1 - 1(x)s1)
                                          + sin(g t) (s3(x)s2 - s2(x)s3)].

    Traceless and Hermitian; vanishes at t = 0 and for p = 0.
    """
    if abs(p) > 1.0:
        raise DomainError(f"|p| must be <= 1, got {p}")
    g = bound.g_coupling
    thm = 0.5 * laser.eta * bound.Delta * math.sin(laser.omega_L * t)
    return (-(p * g / 4.0) * math.sin(thm)
            * (math.cos(g * t) * SIGMA_10 + math.sin(g * t) * SIGMA_32))
