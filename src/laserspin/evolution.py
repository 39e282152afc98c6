"""Propagators of a two-spin Hamiltonian.

Magnus steps
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
carries about tol / 2 against a tight reference, until roundoff sets
the grid: once 4e-15 n exceeds 7.5 tol the accepted change is the
floor, not tol, and the error can pass tol (1.2 tol over 34 samples of
8 motion periods on the drive of acceptance test 4a at tol 1e-12, the
grid and error of tol 1e-11, where it is 0.12 tol).  The steps of a
round are written straight into its nodes, where the prefix product of
the steps, formed pairwise in 2 log2 n batched matmuls, replaces them;
the nodes are projected once per halving round by a Newton step of the
polar projection.  Each sample off the grid nodes then takes one more
step, from the node before it, applied in place _CHUNK = 256 samples
at a time; a sample on a node, or within roundoff of it,
8 eps max(t/h, 1), takes U there.

Sixth order comes from the same rounds where no sample needs a tail
step.  When all samples lie on the nodes of the n/2-step grid, the
Richardson extrapolation E_n = polar(U_n + (U_n - U_{n/2}) / 15) cancels
the fourth-order error term, so E_n is sixth order, and its error is
about |E_n - E_{n/2}| / (2^6 - 1).  From n = 32 on, such a point that
the first test holds is accepted when E moves by at most
max(31.5 tol, 4e-15 n) at its samples, and its samples take E_n.  E is
formed at the samples only, from the difference U_n - U_{n/2} that the
first test leaves in the coarse buffer, and polar stands for two Newton
steps of the projection: the sum is off unitarity by about
|U_n - U_{n/2}|^2 / 15, which one step left at 1.1e-10 at tol 9e-5.
The second test runs beside the first, so it adds no round, and a point
the first test accepts keeps its grid and bits.  A point with a tail
step keeps the first test only and forms no E: its tail step is fourth
order, and on a grid 4 times coarser its local error grows about
4^5-fold, which the estimate of E does not see.  On tail-free grids of
four drives at tol 1e-6 to 1e-12 the worst error against DOP853 was
0.39 tol.  190 strobes at multiples of the motion period on the drive
of acceptance test 4a (eta 0.5, eps 0.3, g 0.5, Delta 4) took 112
H times instead of 496 at tol 1e-6, and 240 instead of 2 032 at 1e-9.
So a run holds its (N, 4, 4) stack of U, the E of its samples and
temporaries of one chunk beside the nodes of its rounds.

A Hamiltonian source maps an (m,) array of times to their
(m, 4, 4) stack, or to one constant 4x4, and is asked for at most 512
times per call, in no particular order.  Every factor is the
exponential of a Hermitian matrix, so U stays unitary to roundoff and
rho(t) = U rho(0) U^+ keeps Hermiticity, trace and positivity
structurally; the halving test's error estimate sets the accuracy.
`simulate.evolve_von_neumann` forms the whole stack of states in one
broadcast product, and `simulate.run_scenario` forms no state at all,
but takes each sample's outputs from U R, with rho(0) = R R^+.

:func:`propagate_batch` runs a batch of such propagations, the points
of a sweep or of an oracle grid, at once, and :func:`propagate` is its
batch of one.  Its source maps an (m,) array of times and an (m,) array
of the points they belong to, so that one call serves every point and
ragged sets of times fit; the 512 times per call are counted across the
batch.  Each point plans its own grid and tol (below), all points share
the halving round's n, each with its own h = span / n, and a point
leaves the batch at its first passed halving test; the tail steps of
all samples run together at the end.  So each round asks H once per 512
times for the whole batch, while each point keeps the grid, the H
times and the bits of its own run, and a point that fails ends only its
own run.  A round holds at most BATCH_MATRICES = MAX_STEPS + 1 nodes
across its points, or the nodes of one point, so that a batch never
needs more memory for its rounds than one run on the finest grid: the
points beyond that wait, and start again from the last grid they
computed, which costs each of them that grid's H times once more.

Periodic drives
---------------
H_S(t) depends on t only through sn, cn and dn of u = w'_L t, so it has
the exact motion period T = 4 K(mu) / w'_L.  Bx and Bz are even in t and
By is odd, so H_S is also time-reversal symmetric, H_S(-t) = H_S(t)*,
at every eps (pinned at 1e-14 for `spin_hamiltonian` at three drives).
H_S also shifts by half a period: sn(u + 2K) = -sn u, cn(u + 2K) = -cn u
and dn(u + 2K) = dn u (DLMF 22.4.3), so Bx and By change sign and Bz
does not, and with P = s3(x)s3, which leaves s.s alone,
H_S(t + T/2) = P H_S(t) P (pinned at 1e-14 at four drives).  Passing T
to :func:`propagate` asserts all three, H(t + T) = H(t),
H(-t) = H(t)* and H(t + T/2) = P H(t) P.  Then U(-s) = U(s)*,
U(s + T/2) = P U(s) P U(T/2), so the second quarter period is the first
one reversed and shifted, and one run over [0, T/4] gives every sample
(Floquet; Shirley, Phys. Rev. 138, B979 (1965)):

    C = B^T P B,               B = U(T/4),
    U(T/2) = P C,              U(T) = C C,
    V(a) = U(a) for a <= T/4,  V(a) = P U(T/2 - a)* C for T/4 < a <= T/2,
    U(m T + r) = V(r) U(T)^m,  m = rint(t / T),  |r| <= T/2,

with V(r) = V(|r|), conjugated when r < 0.  B and every U(a) are
samples of that one run, C is symmetric, and C and U(T) are projected
once each by the polar step, so H is asked for times in [0, T/4] only.

A run whose span lies beyond the reach of its period is composed so,
within one period too; a run within reach runs directly, bit for bit
the run without a period (:func:`_plan` states the rule).  The quarter
run writes U at its samples straight into the rows of the result, one
per sample of t_grid and a last one for B, the rows of one offset share
its tail step, and the rows are then composed in place, _CHUNK at a
time, so a composed run holds one (N, 4, 4) stack, as a direct run
does: `simulate` over 20 001 samples peaks at 1.45 stacks over 5 laser
periods and at 1.39 direct (tracemalloc), where a stack of the quarter
run's own beside the result took 2.23.

Errors add along the products: with e_q the error of the quarter run,
C carries 2 e_q, U(T) 4 e_q, V(a) about 2 e_q at most, as U(T/2) does,
and U(m T + r) about (4 m + 2) e_q <= (4 t / T + 4) e_q.  The quarter
run is therefore asked for tol T / (4 max(t_end, T)), the direct run's
error budget over a quarter period, or over a quarter of the one period
that holds a shorter run, and delivers about half that (above), so
every sample carries about (t_end + T) / (2 max(t_end, T)) tol <= tol,
while the cost grows only like (t_end / T)^(1/4).  Within one period
the worst error against DOP853 was 0.36 tol, on four drives with 11,
40 and 101 samples over 0.3, 0.5 and 1 laser periods at tol 1e-6 to
1e-12.  The powers U(T)^m are matrix products, never an
eigendecomposition, because at Delta = 0 U(T) has a degenerate triplet
whose eigenvectors `eig` need not return orthogonal.  All distinct m
are powered at once, bit by bit: at bit b every power whose m has bit b
set takes one factor U(T)^(2^b), and that factor is squared for the
next bit.  A Newton step of the polar projection after every one of
these products keeps unitarity at roundoff, so only the phases carry
the roundoff of the products: 1e-16 m to 4e-16 m against 40-digit
powers of the same U(T), for m from 10 to 10^5.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegratorError
from .pauli import IDENTITY4, PAIR

HamiltonianSource = Callable[[np.ndarray], np.ndarray]
# times and the point of each time in, their stack out (propagate_batch)
BatchSource = Callable[[np.ndarray, np.ndarray], np.ndarray]

# the tolerances every propagation accepts, exclusive bounds
TOL_BOUNDS = (1e-14, 1e-4)
# steps on the finest uniform grid of one integration; 8 192 is the most
# a test needs
MAX_STEPS = 2**16
# 4x4 matrices in one stack of a batch: the nodes of a halving round
# across its points (:func:`_propagate_grid`), and the samples of the
# points of a sweep batch, which simulate._sweep_point cuts to fit; the
# nodes of the finest grid of one run, 16 MB
BATCH_MATRICES = MAX_STEPS + 1
# the accepted change of U under halving, in units of tol: for a
# fourth-order step the fine grid's error is about change / (2^4 - 1)
# (Hairer, Nørsett & Wanner, Solving ODEs I, II.4), so 7.5 tol delivers
# about tol / 2; 15 tol measured up to 0.975 tol against DOP853
_ACCEPT_CHANGE = 7.5
# E_n = polar(U_n + (U_n - U_{n/2}) / (2^4 - 1)), the Richardson
# extrapolation of the fourth-order step, is sixth order, so its error is
# about its change under halving / (2^6 - 1), and a change of 31.5 tol
# delivers about tol / 2
_RICHARDSON = 15.0
_ACCEPT_CHANGE_6 = 31.5
# a sample within 8 eps max(t/h, 1) of a node k h lies on it
_SNAP = 8.0 * np.finfo(float).eps
# the two Gauss-Legendre nodes of [0, 1]
_GL2 = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
# intervals per H call, so at most 512 times per call, which the H-call
# contract states; batched 4x4 matmul and eigh cost a flat 0.5 and 5-6 us
# per matrix from 256 to 32 768 matrices, on one thread, and one call for a
# whole grid of 512 to 65 536 steps was no faster (6-10 us a step either way).
# Also the samples per chunk of all per-sample work: tail steps, composed
# samples, and simulate's trace columns and CSV rows
_CHUNK = 256


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
def _magnus4(H_of_t: BatchSource, starts: np.ndarray, lengths: np.ndarray,
             point: np.ndarray,
             sink: Callable[[np.ndarray, np.ndarray], None],
             ) -> dict[int, DomainError]:
    """The Magnus steps exp(-i K) over the intervals [a, a + h] of a batch,
    with interval j of point point[j], handed to sink(j, steps) at most
    _CHUNK intervals at a time, in order, for the caller to store.

    K = h/2 (H1 + H2) + i sqrt(3) h^2/12 [H1, H2], with H1 and H2 the
    values of H at the two Gauss-Legendre nodes of the interval.  H is
    asked for one chunk per call, across the batch.  A point whose K is
    not finite fails with a DomainError naming its first such interval;
    its steps of that chunk are not handed on, and its later intervals
    are not sent to H.  Returns the failures by point.
    """
    failed = {}
    todo = np.arange(starts.size)
    while todo.size:
        j, todo = todo[:_CHUNK], todo[_CHUNK:]
        a, h, p = starts[j], lengths[j], point[j]
        times = (a[:, None] + h[:, None] * _GL2).ravel()
        H = np.broadcast_to(H_of_t(times, p.repeat(2)), (times.size, 4, 4))
        H1, H2, hm = H[0::2], H[1::2], h[:, None, None]
        K = (0.5 * hm) * (H1 + H2) \
            + (1j * math.sqrt(3.0) / 12.0 * hm * hm) * (H1 @ H2 - H2 @ H1)
        for k in np.flatnonzero(~np.isfinite(K).all(axis=(-2, -1))).tolist():
            if p[k] not in failed:
                failed[int(p[k])] = DomainError(
                    f"Magnus exponent is not finite on "
                    f"[{a[k]:.6g}, {a[k] + h[k]:.6g}]")
                todo = todo[point[todo] != p[k]]
        if failed:
            live = ~np.isin(p, list(failed))
            j, K = j[live], K[live]
        sink(j, expm_hermitian(K))
    return failed


def period_tolerance(tol: float, period: float, span: float) -> float:
    """Tolerance of the quarter-period run that composes a run over a span
    beyond the reach of the period (:func:`_plan`).

    tol * period / (4 max(span, period)), the direct run's error budget
    over a quarter period, or over a quarter of the one period that holds
    a shorter span: U(T/4) then carries e_q = tol T / (4 max(span, T)),
    U(T/2) and U(T) carry 2 e_q and 4 e_q, and a sample at t = m T + r
    carries about (4 m + 2) e_q <= (t + T) / max(span, T) tol <= 2 tol,
    of which the halving test delivers about half (module docstring).
    Raises DomainError when span > period and the half-period budget
    tol T / (2 span) is not above the floor TOL_BOUNDS[0], so a span of
    more than tol / 2e-14 periods; a run within one period is asked for
    tol / 4 > 2.5e-15.  Below 8.5e-15 the accepted change
    max(7.5 tol, 4e-15 n) is the roundoff term 4e-15 n at every tested
    n >= 16, so near the floor tol no longer sets the grid of the fourth
    order test, and the quarter run's is the one a run at the floor
    takes (measured: the same grid at 5e-15, 1e-14 and 2e-14 on three
    drives).
    """
    span = max(span, period)
    tol_half = 0.5 * tol * (period / span)
    if span > period and not tol_half > TOL_BOUNDS[0]:
        raise DomainError(
            f"{span / period:.6g} periods leave tol * T / (2 t_end) = "
            f"{tol_half:.3g} for half of one, not above {TOL_BOUNDS[0]}")
    return 0.5 * tol_half


def propagate(H_of_t: HamiltonianSource, t_grid: Sequence[float],
              tol: float, period: float | None = None) -> np.ndarray:
    """Propagators U(t_k) of dU/dt = -i H(t) U, U(0) = 1, on a time grid.

    H_of_t maps an (m,) array of times to their (m, 4, 4) stack, or to
    one 4x4 matrix when H is constant; each call asks for at most 512
    times, in no particular order.  t_grid must start at 0 and increase
    strictly; the result has shape (len(t_grid), 4, 4).  The uniform
    steps are halved until U moves by at most max(7.5 tol, 4e-15 n),
    which puts the Richardson estimate of the error, that change / 15,
    at tol / 2 (module docstring), so U is delivered within tol as long
    as 7.5 tol is above 4e-15 n, the roundoff floor of n steps.  Beyond
    that the floor, not tol, sets the grid, and the error can pass tol:
    34 evenly spaced samples over 8 motion periods of the drive of
    acceptance test 4a carry 1.2 tol at tol 1e-12.  A sample costs two
    H times but no steps, or nothing when it lies on a grid node, to
    roundoff.  When every sample lies on the nodes of the
    n/2-step grid, no sample needs such a step, and the sixth-order
    E_n = polar(U_n + (U_n - U_{n/2}) / 15) is also accepted once it
    moves by at most max(31.5 tol, 4e-15 n), so samples at multiples
    of t_grid[-1] / 2^i, or strobes at multiples of the period, often
    stop one to three halvings sooner.  Samples off those nodes keep the
    fourth-order test, because their tail steps are fourth order.
    Raises IntegratorError when the step size underflows or MAX_STEPS
    steps do not pass the halving test, and DomainError when a Magnus
    exponent is not finite (H overflows).

    Passing the period T asserts H(t + T) = H(t), H(-t) = H(t)* and
    H(t + T/2) = P H(t) P with P = s3 (x) s3, as `spin_hamiltonian`
    satisfies (module docstring).  When t_grid[-1] lies beyond the reach
    of T (:func:`_plan`), only [0, T/4] is integrated, at
    tol * T / (4 max(t_grid[-1], T)) (:func:`period_tolerance`), and H is
    asked for no time outside it: with m = rint(t / T) the nearest
    multiple, r = t - m T and a = |r|, U(t) = V(r) U(T)^m, where
    V(a) = U(a) up to T/4 and P U(T/2 - a)* C beyond, V(r) is conjugated
    when r < 0, C = U(T/4)^T P U(T/4) and U(T) = C C.  Each sample then
    carries about (t_grid[-1] + T) / (2 max(t_grid[-1], T)) tol.  Within
    reach the result is the one without a period, bit for bit.  Raises
    DomainError when t_grid[-1] > T and the half-period budget
    tol * T / (2 t_grid[-1]) is not above the tolerance floor.

    This is the batch of one of :func:`propagate_batch`.
    """
    Us, = propagate_batch(lambda t, point: H_of_t(t), [t_grid], [tol],
                          [period])
    if isinstance(Us, Exception):
        raise Us
    return Us


def propagate_batch(H_of_t: BatchSource, t_grids: Sequence[Sequence[float]],
                    tols: Sequence[float],
                    periods: Sequence[float | None] | None = None,
                    ) -> list[np.ndarray | Exception]:
    """:func:`propagate` for a batch of points, each with its own grid, tol
    and period (None for none), in one run.

    H_of_t maps an (m,) array of times and an (m,) integer array of the
    points they belong to, indices into t_grids, to their (m, 4, 4)
    stack, or to one 4x4 matrix when H is constant; each call asks for
    at most 512 times, counted across the batch, in no particular order.
    Each point plans its own grid and tol as :func:`propagate` does: its
    t_grid, or, when it is given a period and its span lies beyond the
    reach of it (:func:`_plan`), the quarter-period grid at
    :func:`period_tolerance`, whose U is gathered into one row per sample
    of t_grid and composed there in place.  All points share the halving
    round's step count n, each with its own
    h = span / n, and a point leaves the batch at its first passed
    halving test, of U or, when all of its samples lie on the coarse
    nodes and so need no tail step, of the sixth-order E at its samples
    (:func:`propagate`).  So a halving round, and the tail steps of every
    sample, ask H once per 512 times for the whole batch, while each
    point's grid, H times and bits are those of its own
    :func:`propagate`; a point held back by the node budget of a round
    (module docstring) asks for one of its grids twice.  Returns, per
    point, its (len(t_grid), 4, 4) stack, or the DomainError or
    IntegratorError its :func:`propagate` raises, while the other points
    run on.  An exception raised by H_of_t ends the whole batch.
    """
    if periods is None:
        periods = [None] * len(t_grids)
    results, plans = [], []
    for t_grid, tol, period in zip(t_grids, tols, periods, strict=True):
        try:
            plans.append(_plan(t_grid, tol, period))
            results.append(None)
        except DomainError as exc:
            results.append(exc)
    live = np.array([p for p, r in enumerate(results) if r is None],
                    dtype=np.int64)
    inner = _propagate_grid(lambda t, point: H_of_t(t, live[point]),
                            [grid for grid, _, _, _ in plans],
                            [tol for _, tol, _, _ in plans],
                            [rows for _, _, rows, _ in plans])
    for p, Us, (_, _, _, compose) in zip(live.tolist(), inner, plans):
        results[p] = (Us if compose is None or isinstance(Us, Exception)
                      else compose(Us))
    return results


def _plan(t_grid: Sequence[float], tol: float, period: float | None):
    """Check one point of :func:`propagate_batch` and return the grid its
    Magnus steps run on, the tol of that run, the sample of that grid
    behind each row of its result, or None when the rows are the grid's
    own samples, and the map that turns those rows into U on t_grid in
    place, or None when they are U on t_grid already.

    The one route rule: a run given a period T runs directly on t_grid
    while its span is within reach of T, and beyond reach it is composed
    from the quarter-period run at :func:`period_tolerance`, tol / 4
    within one period.  A run without a period runs directly.  Reach is
    T on a tail-free grid, whose samples all lie on the nodes of the
    power-of-two grid of the span with the fewest steps that holds them,
    such as 2^k + 1 evenly spaced samples: its direct run takes no tail
    step and keeps the sixth-order test.  On any other grid, reach is
    4^(-4/5) T = 0.330 T, where the direct run and the quarter run cost
    the same steps: the fourth-order test takes n ~ s^(5/4) tol^(-1/4)
    steps over a span s (global error ~ s h^4; Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 151 (2009)), and 4 (s / T)^(5/4) = 1.  Summed
    over tol 1e-6, 1e-8, 1e-10 and 1e-12, on the drive of acceptance test
    4a and three others with 11, 40 and 101 samples, the direct run cost
    at most the composed one from 0.26 T to 0.36 T (11 samples over 0.3
    laser periods, 0.284 T: 3 392 H times against 5 520), and more from
    0.38-0.40 T up (11 samples over one laser period: 13 568 against
    5 520).  On the 4a drive, 9 tail-free samples over half a laser
    period take 960 H times directly and would take 5 504 composed.
    """
    tol = _check_tol(tol)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0.0:
        raise DomainError("time grid must start at 0")
    if not (np.all(np.diff(t_grid) > 0.0) and np.isfinite(t_grid[-1])):
        raise DomainError("time grid must be strictly increasing and finite")
    if period is not None and not (period > 0.0 and math.isfinite(period)):
        raise DomainError(f"period must be positive and finite, got {period}")
    span = t_grid[-1]
    # 0 for a lone sample at 0, which no grid needs to hold
    coarsest = span / (1 << (t_grid.size - 2).bit_length())
    reach = math.inf if period is None else period * (
        1.0 if coarsest and _nodes(t_grid, coarsest)[1].all() else 4.0 ** -0.8)
    if span <= reach:
        return t_grid, tol, None, None

    tol_quarter = period_tolerance(tol, period, span)
    # V(a) takes U(a) up to T/4 and U(T/2 - a) beyond it; the last row is
    # U(T/4)
    _, _, a, far = _offsets(t_grid, period)
    inner, where = np.unique(
        np.append(np.where(far, 0.5 * period - a, a), 0.25 * period),
        return_inverse=True)
    return (inner, tol_quarter, where,
            lambda Us: _compose(Us, t_grid, period))


def _offsets(t_grid: np.ndarray, period: float):
    """The nearest multiple m of the period to each sample, the offset
    r = t - m T, a = |r|, which roundoff can put just beyond T/2 and is
    taken back to T/2, and whether a lies beyond T/4."""
    m = np.rint(t_grid / period)
    r = t_grid - m * period
    a = np.minimum(np.abs(r), 0.5 * period)
    return m, r, a, a > 0.25 * period


def _compose(Us: np.ndarray, t_grid: np.ndarray,
             period: float) -> np.ndarray:
    """U(m T + r) = V(r) U(T)^m on t_grid from the rows of the quarter run,
    U(|r|), or U(T/2 - |r|) beyond T/4, and a last row B = U(T/4): the
    rows are overwritten in place, _CHUNK samples at a time, and returned
    without the last."""
    m, r, _, far = _offsets(t_grid, period)
    P = PAIR[3, 3]
    B = Us[-1]
    C = _polar_step(B.T @ P @ B)                 # U(T/2) = P C
    # U(T)^m for every distinct m at once, bit by bit, from the projected
    # squares U(T)^(2^b); no eig, which the Delta = 0 triplet defeats
    levels, level_of = np.unique(m.astype(np.int64), return_inverse=True)
    powers = np.broadcast_to(IDENTITY4, (levels.size, 4, 4)).copy()
    square = _polar_step(C @ C)                  # U(T)^(2^b) at bit b
    for b in range(int(levels[-1]).bit_length()):
        has_bit = (levels >> b & 1).astype(bool)
        powers[has_bit] = _polar_step(powers[has_bit] @ square)
        square = _polar_step(square @ square)
    out = Us[:-1]
    for i in range(0, m.size, _CHUNK):
        rows = slice(i, i + _CHUNK)
        V = out[rows]
        beyond = far[rows]
        V[beyond] = P @ V[beyond].conj() @ C     # V(a) = P U(T/2 - a)* C
        back = r[rows] < 0.0
        V[back] = V[back].conj()                         # U(-s) = U(s)*
        np.matmul(V, powers[level_of[rows]], out=V)
    return out


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
    """Overwrite a stack whose length is a power of two, or each stack of
    an array of them along axis -3, with its prefix products
    S[j] ... S[0], later factors on the left, and return it.

    A work-efficient scan (Blelloch, CMU-CS-90-190, 1990) in place: the
    products of adjacent pairs overwrite the odd slots, which the
    recursion turns into the odd prefixes, and then the even prefixes
    overwrite the even slots from 2 on; about 2 len(S) matmuls in
    2 log2 len(S) batched calls.  Each prefix is a product of at most
    2 log2 len(S) factors.
    """
    if S.shape[-3] > 1:
        odd, even = S[..., 1::2, :, :], S[..., 0::2, :, :]
        np.matmul(odd, even, out=odd)
        _prefix_product(odd)                                 # P[2k + 1]
        np.matmul(S[..., 2::2, :, :], S[..., 1:-1:2, :, :],
                  out=S[..., 2::2, :, :])                    # P[2k + 2]
    return S


def _project(stack: np.ndarray) -> np.ndarray:
    """Overwrite a stack of near-unitaries with :func:`_polar_step` of each,
    in slices of _CHUNK matrices, so that G and U G never span the stack,
    and return it."""
    for i in range(0, stack.shape[0], _CHUNK):
        stack[i:i + _CHUNK] = _polar_step(stack[i:i + _CHUNK])
    return stack


def _nodes(t_grid: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The node k h of a grid of step h at or before each sample, and
    whether the sample lies on it: within roundoff, 8 eps max(t/h, 1), of
    k = rint(t/h), or else k = floor(t/h)."""
    x = t_grid / h
    k = np.rint(x)
    on = np.abs(x - k) <= _SNAP * np.maximum(x, 1.0)
    return np.where(on, k, np.floor(x)).astype(np.int64), on


def _propagate_grid(H_of_t: BatchSource, t_grids: list[np.ndarray],
                    tols: list[float], rows: list[np.ndarray | None],
                    ) -> list[np.ndarray | Exception]:
    """The Magnus steps of :func:`propagate_batch` over checked grids, one
    per point: U on each grid, or the error that ended that point's run.
    rows[p] names the sample of t_grids[p] behind each row of that U, or
    is None for one row per sample; rows that share a sample share its
    tail step.

    A round holds at most BATCH_MATRICES nodes across its points, or the
    nodes of one point: the points beyond that are held back, and run in
    a later group of rounds that starts at the last grid they computed
    and does not test it again; the E of its samples waits with it, so
    that its next test is the one of its own run.
    """
    results = [IDENTITY4[None].copy() if t_grid.size == 1 else None
               for t_grid in t_grids]
    spans = np.array([t_grid[-1] for t_grid in t_grids])
    sizes = np.array([t_grid.size for t_grid in t_grids])
    tols = np.array(tols)
    tails = []                 # per accepted point, its samples off the nodes
    # E at the samples of each point whose samples all lay on the coarse
    # nodes of its last tested round, which it did not pass
    extrapolated = {}
    # the points of each group of rounds, by the step count it starts at
    waiting = {8: [p for p, t_grid in enumerate(t_grids) if t_grid.size > 1]}
    while waiting:
        n = min(waiting)
        active, coarse = np.array(sorted(waiting.pop(n)), dtype=np.int64), None
        while active.size:
            keep = max(1, BATCH_MATRICES // (n + 1))
            if active.size > keep:
                # a point that computed the coarse grid starts again there
                start = n if coarse is None else n // 2
                waiting.setdefault(start, []).extend(active[keep:].tolist())
                active = active[:keep]
                coarse = None if coarse is None else coarse[:keep].copy()
            h = spans[active] / n
            under = ~(h >= np.finfo(float).tiny)
            if under.any():
                for p, hp in zip(active[under].tolist(), h[under].tolist()):
                    results[p] = IntegratorError(
                        f"step size underflow at t = 0 (h = {hp:.3e})")
                active, h = active[~under], h[~under]
                coarse = None if coarse is None else coarse[~under]
            # the steps go straight into the nodes and are scanned there
            # in place, so the round keeps no stack beside U and the
            # coarse U
            U = np.empty((active.size, n + 1, 4, 4), dtype=complex)
            U[:, 0] = IDENTITY4
            nodes = U.reshape(-1, 4, 4)
            # the node that each interval ends at
            ends = np.arange(nodes.shape[0]).reshape(-1, n + 1)[:, 1:].ravel()

            def put(j, steps):
                nodes[ends[j]] = steps
            failed = _magnus4(H_of_t, (h[:, None] * np.arange(n)).ravel(),
                              h.repeat(n), active.repeat(n), put)
            del ends
            if failed:
                for p, exc in failed.items():
                    results[p] = exc
                ok = ~np.isin(active, list(failed))
                active, h, U = active[ok], h[ok], U[ok]
                coarse = None if coarse is None else coarse[ok]
            _prefix_product(U[:, 1:])
            # U(0) = 1 is a fixed point of the projection
            _project(U.reshape(-1, 4, 4))
            del nodes
            err = np.full(active.size, math.inf)
            if coarse is not None:
                # the global roundoff of n steps floors the attainable change;
                # the difference overwrites the coarse U, which is dropped
                # after the tests
                err = np.abs(np.subtract(U[:, ::2], coarse, out=coarse)
                             ).max(axis=(1, 2, 3))
                floor = 4e-15 * n
                passed = err <= np.maximum(_ACCEPT_CHANGE * tols[active], floor)
                # U at the node at or before each sample, copied out of
                # the round; the samples off the nodes take one more step
                for j in np.flatnonzero(passed).tolist():
                    p = int(active[j])
                    k, on = _nodes(t_grids[p], h[j])
                    off = np.flatnonzero(~on)
                    results[p] = U[j, k if rows[p] is None else k[rows[p]]]
                    tails.append((p, off, k[off] * h[j],
                                  t_grids[p][off] - k[off] * h[j]))
                # a point held by that test whose samples all lie on the
                # coarse nodes takes no tail step, so the Richardson
                # extrapolation of U_n and U_{n/2} serves it there: E_n,
                # formed from their difference in the coarse buffer, passes
                # at the samples by the sixth-order estimate
                last = {p: extrapolated.pop(p)
                        for p in active.tolist() if p in extrapolated}
                for j in np.flatnonzero(
                        ~passed & (sizes[active] <= n // 2 + 1)).tolist():
                    p = int(active[j])
                    k, on = _nodes(t_grids[p], 2.0 * h[j])
                    if not on.all():
                        continue
                    E = coarse[j, k]
                    E /= _RICHARDSON
                    E += U[j, 2 * k]
                    # off unitarity by about |U_n - U_{n/2}|^2 / 15, which
                    # two Newton steps take to roundoff
                    _project(_project(E))
                    if p in last and np.abs(E - last[p]).max() <= max(
                            _ACCEPT_CHANGE_6 * tols[p], floor):
                        passed[j] = True
                        results[p] = E if rows[p] is None else E[rows[p]]
                    else:
                        extrapolated[p] = E
                del last
                # freed before the rows still running are copied out of U
                coarse = None
                if passed.any():
                    active, U, err = active[~passed], U[~passed], err[~passed]
            if 2 * n > MAX_STEPS:
                for p, e in zip(active.tolist(), err.tolist()):
                    results[p] = IntegratorError(
                        f"{MAX_STEPS} steps on [0, {spans[p]:.6g}] do not "
                        f"reach tol {tols[p]:.3g}: halving the step still "
                        f"changes U by {e:.3e}")
                break
            n, coarse = 2 * n, U

    # the tail steps of all accepted points, a chunk at a time, each step
    # applied in place to the rows of the sample it serves, _CHUNK rows at
    # a time; a chunk holds every step of a running point between its
    # first and its last
    if tails:
        tails.sort(key=lambda tail: tail[0])
        owners, offs, starts, lengths = zip(*tails)
        del tails
        points = np.repeat(owners, [off.size for off in offs])
        # each point's rows that take a step, and the index of that step
        # among all tail steps, in step order
        targets, first = {}, 0
        for p, off in zip(owners, offs):
            dest, step = _tail_rows(off, t_grids[p].size, rows[p])
            step += first
            targets[p], first = (dest, step), first + off.size
        starts, lengths = np.concatenate(starts), np.concatenate(lengths)

        def advance(j, steps):
            for p in set(points[j].tolist()):
                dest, step = targets[p]
                lo, hi = np.searchsorted(step, [j[0], j[-1] + 1])
                Us = results[p]
                for i in range(lo, hi, _CHUNK):
                    part = slice(i, min(i + _CHUNK, hi))
                    r = dest[part]
                    Us[r] = steps[np.searchsorted(j, step[part])] @ Us[r]
        failed = _magnus4(H_of_t, starts, lengths, points, advance)
        for p, exc in failed.items():
            results[p] = exc
    return results


def _tail_rows(off: np.ndarray, size: int, rows: np.ndarray | None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a result that take a tail step, and the step each
    takes, an index into off, the samples among size that take one;
    ordered by step.  rows[i] is the sample behind row i, or rows is None
    when row i is sample i."""
    step_of = np.full(size, -1)
    step_of[off] = np.arange(off.size)
    if rows is not None:
        step_of = step_of[rows]
    dest = np.flatnonzero(step_of >= 0)
    step = step_of[dest]
    order = np.argsort(step, kind="stable")
    return dest[order], step[order]

