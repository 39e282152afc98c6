"""Propagators of a two-spin Hamiltonian: fourth-order Magnus steps
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) over a time
grid, composed over the motion period of a periodic drive.  Every factor
is the exponential of a Hermitian matrix, so U stays unitary to roundoff.

Each rule is stated once, in the docstring of the function that enforces
it: the contracts in :func:`propagate` and :func:`propagate_batch`, and
that of a Hamiltonian source in the latter; the route of a run, direct
or composed, in :func:`_plan`; the error budget of a composed run in
:func:`period_tolerance`; the Magnus step in :func:`_magnus4`; the
halving rounds, their tests and roundoff floor, the node budget and the
tail steps in :func:`_propagate_grid`; the composition and its Floquet
powers in :func:`_compose`; and the symmetries of H_S that a period
asserts in `spinfield.spin_hamiltonian`.
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
# 4x4 matrices in one stack of a batch: the node budget of a halving round
# (:func:`_propagate_grid`), and the samples of a sweep batch, which
# simulate._sweep_point cuts to fit; the nodes of the finest grid of one
# run, 16 MB
BATCH_MATRICES = MAX_STEPS + 1
# the accepted change of U and of E under halving, in units of tol, and
# the Richardson divisor 2^4 - 1 (:func:`_propagate_grid`)
_ACCEPT_CHANGE = 7.5
_RICHARDSON = 15.0
_ACCEPT_CHANGE_6 = 31.5
_SNAP = 8.0 * np.finfo(float).eps               # :func:`_nodes`
# the two Gauss-Legendre nodes of [0, 1]
_GL2 = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
# intervals per H call, so at most 512 times per call
# (:func:`propagate_batch`); batched 4x4 matmul and eigh cost a flat 0.5
# and 5-6 us per matrix from 256 to 32 768 matrices, on one thread, and one
# call for a whole grid of 512 to 65 536 steps was no faster (6-10 us a
# step either way).  Also the samples per chunk of all per-sample work:
# tail steps, composed samples, and simulate's trace columns and CSV rows
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
    beyond the reach of the period T (:func:`_plan`):
    tol T / (4 max(span, T)).

    The error budget: errors add along the products of :func:`_compose`.
    With e_q the error of B = U(T/4), C carries 2 e_q, U(T) 4 e_q, V(a)
    about 2 e_q at most, and a sample at t = m T + r about
    (4 m + 2) e_q <= (t + T) / max(span, T) tol <= 2 tol, of which the
    halving test delivers about half (:func:`_propagate_grid`).  So the
    quarter run takes the direct run's budget over a quarter period, or
    over a quarter of the one period that holds a shorter span, and its
    cost grows only like (span / T)^(1/4).  Within one period the worst
    error against DOP853 was 0.36 tol, on four drives with 11, 40 and 101
    samples over 0.3, 0.5 and 1 laser periods at tol 1e-6 to 1e-12.

    The floor: raises DomainError when span > T and the half-period
    budget tol T / (2 span) is not above TOL_BOUNDS[0], so for a span of
    more than tol / 2e-14 periods; a run within one period is asked for
    tol / 4 > 2.5e-15.  Below 8.5e-15 the roundoff floor of
    :func:`_propagate_grid` sets the grid at every n >= 16, so the
    quarter run near the floor takes the grid of a run at the floor
    (measured: the same grid at 5e-15, 1e-14 and 2e-14 on three drives).
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
    one 4x4 matrix when H is constant, as :func:`propagate_batch` asks.
    t_grid must start at 0 and increase strictly; the result has shape
    (len(t_grid), 4, 4).  U carries about tol / 2 against a tight
    reference, or tol at most when composed (:func:`period_tolerance`),
    but where the roundoff floor of :func:`_propagate_grid` sets the grid.
    Raises IntegratorError when the step size underflows or MAX_STEPS
    steps do not pass the halving test, and DomainError when a Magnus
    exponent is not finite (H overflows).

    Passing the period T asserts H(t + T) = H(t), H(-t) = H(t)* and
    H(t + T/2) = P H(t) P with P = s3 (x) s3, as `spin_hamiltonian`
    satisfies.  A run beyond the reach of T (:func:`_plan`) integrates
    [0, T/4] only, at :func:`period_tolerance`, asks H for no time
    outside it and composes every sample from it (:func:`_compose`); a
    run within reach is the run without a period, bit for bit.  Raises
    DomainError when the span puts the budget of :func:`period_tolerance`
    on the tolerance floor.

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

    The contract of a Hamiltonian source: H_of_t maps an (m,) array of
    times and an (m,) integer array of the points they belong to, indices
    into t_grids, to their (m, 4, 4) stack, or to one 4x4 matrix when H
    is constant.  Each call asks for at most 512 times, counted across
    the batch, in no particular order, so one call serves every point and
    ragged sets of times fit.

    Each point plans its own run (:func:`_plan`), and the rounds and tail
    steps of all points run together (:func:`_propagate_grid`), while each
    keeps the grid and bits of its own :func:`propagate`, and its H times
    but for the node budget.  Returns, per point, its (len(t_grid), 4, 4)
    stack, or the DomainError or IntegratorError its :func:`propagate`
    raises, while the other points run on.  An exception raised by H_of_t
    ends the whole batch.
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
    Magnus steps run on, the tol of that run, the samples of that grid
    behind the rows of its result (slice(None) for the grid's own), and
    the map that turns those rows into U on t_grid in place, or None.

    The one route rule: a run given a period T runs directly on t_grid
    while its span is within reach of T, and beyond reach it is composed
    (:func:`_compose`) from the quarter-period run at
    :func:`period_tolerance`; a run without a period runs directly.
    Reach is T on a tail-free grid, whose samples all lie on the nodes of
    the power-of-two grid of the span with the fewest steps that holds
    them, such as 2^k + 1 evenly spaced samples: its direct run takes no
    tail step and keeps the sixth-order test of :func:`_propagate_grid`;
    on the 4a drive, 9 tail-free samples over half a laser period take
    960 H times directly and would take 5 504 composed.  On any other
    grid, reach is 4^(-4/5) T = 0.330 T, where the direct run and the
    quarter run cost the same steps: the fourth-order test takes
    n ~ s^(5/4) tol^(-1/4) steps over a span s (global error ~ s h^4),
    and 4 (s / T)^(5/4) = 1.  Summed over tol 1e-6, 1e-8, 1e-10 and
    1e-12, on the drive of acceptance test 4a and three others with 11,
    40 and 101 samples, the direct run cost at most the composed one
    from 0.26 T to 0.36 T (11 samples over 0.3 laser periods, 0.284 T:
    3 392 H times against 5 520), and more from 0.38-0.40 T up (11
    samples over one laser period: 13 568 against 5 520).  A dense trace
    within one period gains no H times by composition, as nearly every
    sample keeps an offset, and a tail step, of its own: 4 001 samples
    over one laser period take 8 048 H times either way, in 18 H calls
    composed against 19 direct.
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
        return t_grid, tol, slice(None), None

    tol_quarter = period_tolerance(tol, period, span)
    # the rows of :func:`_compose`
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
    """U on t_grid from the rows of the quarter run, U(|r|), or
    U(T/2 - |r|) beyond T/4, and a last row B = U(T/4): the rows are
    overwritten in place, _CHUNK samples at a time, and returned without
    the last.

    The symmetries of H_S (`spinfield.spin_hamiltonian`) give
    U(-s) = U(s)* and U(s + T/2) = P U(s) P U(T/2), so the second quarter
    period is the first one reversed and shifted, and one run over
    [0, T/4] gives every sample (Floquet; Shirley, Phys. Rev. 138, B979
    (1965)):

        C = B^T P B,               U(T/2) = P C,     U(T) = C C,
        V(a) = U(a) for a <= T/4,  V(a) = P U(T/2 - a)* C for a > T/4,
        U(m T + r) = V(r) U(T)^m,  m = rint(t / T),  |r| <= T/2,

    with V(r) = V(|r|), conjugated when r < 0.  C is symmetric, and C and
    U(T) are projected once each by :func:`_polar_step`.  As the rows are
    the result, a composed run holds one (N, 4, 4) stack, as a direct run
    does: `simulate` over 20 001 samples and 5 laser periods peaks at
    1.45 stacks (tracemalloc).

    The Floquet powers U(T)^m are matrix products, never an
    eigendecomposition, because at Delta = 0 U(T) has a degenerate
    triplet whose eigenvectors `eig` need not return orthogonal.  All
    distinct m are powered at once, bit by bit: at bit b every power
    whose m has bit b set takes one factor U(T)^(2^b), which is then
    squared.  A polar step after each product keeps unitarity at
    roundoff, so only the phases carry the roundoff of the products:
    1e-16 m to 4e-16 m against 40-digit powers of the same U(T), for m
    from 10 to 10^5.
    """
    m, r, _, far = _offsets(t_grid, period)
    P = PAIR[3, 3]
    B = Us[-1]
    C = _polar_step(B.T @ P @ B)                 # U(T/2) = P C
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
                    tols: list[float], rows: list[np.ndarray | slice],
                    ) -> list[np.ndarray | Exception]:
    """The Magnus steps of :func:`propagate_batch` over checked grids, one
    per point: U on each grid, or the error that ended that point's run.
    rows[p] indexes the samples of t_grids[p] behind the rows of that U,
    slice(None) for one row per sample; rows that share a sample share
    its tail step.

    The halving test.  The steps are uniform, n = 8, 16, ... of them with
    h = span / n for every point of a round, until U at the nodes of the
    n/2-step grid moves by at most max(7.5 tol, 4e-15 n) when the step is
    halved.  For a fourth-order step the error of the n-step grid is about
    that change / (2^4 - 1) (Richardson; Hairer, Nørsett & Wanner, Solving
    Ordinary Differential Equations I, Sec. II.4), so 7.5 tol delivers
    about tol / 2; 15 tol measured up to 0.975 tol against DOP853.  The
    roundoff floor 4e-15 n, the roundoff of n steps, sets the grid once it
    exceeds 7.5 tol, and the error can then pass tol: 34 evenly spaced
    samples over 8 motion periods of the drive of acceptance test 4a carry
    1.2 tol at tol 1e-12, the grid and the error of tol 1e-11 (0.12 tol
    there).  The steps of a round (:func:`_magnus4`) are written straight
    into its nodes, their prefix product (:func:`_prefix_product`)
    replaces them there, and the nodes are projected (:func:`_polar_step`).

    The sixth-order test of tail-free samples.  When all of a point's
    samples lie on the nodes of the n/2-step grid, the Richardson
    extrapolation E_n = polar(U_n + (U_n - U_{n/2}) / 15) at its samples
    is sixth order, with an error of about |E_n - E_{n/2}| / (2^6 - 1).
    So from n = 32 on the point also passes when E moves by at most
    max(31.5 tol, 4e-15 n), for about tol / 2, and its samples take E_n.
    E is formed from the difference U_n - U_{n/2} that the halving test
    leaves in the coarse buffer, and takes two polar steps: the sum is off
    unitarity by about |U_n - U_{n/2}|^2 / 15, which one left at 1.1e-10
    at tol 9e-5.  The test adds no round, and a point the halving test
    passes keeps its grid and bits.  On tail-free grids of four drives at
    tol 1e-6 to 1e-12 the worst error against DOP853 was 0.39 tol, and
    190 strobes at multiples of the motion period on the 4a drive take
    112 H times at tol 1e-6, against 496 by the halving test alone.  A
    point with a tail step keeps the halving test only: its tail step is
    fourth order, and on a grid 4 times coarser its local error grows
    about 4^5-fold, which the estimate of E does not see.

    The node budget.  A round holds at most BATCH_MATRICES nodes across
    its points, or the nodes of one point: the points beyond that are
    held back, and run in a later group of rounds that starts at the last
    grid they computed, whose H times they pay again, and does not test
    it again; the E of its samples waits with it, so that its next test
    is the one of its own run.

    The tail steps.  A sample on a node of the passed grid (:func:`_nodes`)
    takes U there, any other one more step from the node before it; those
    of all points run together at the end, each applied in place to the
    rows of its sample, _CHUNK rows at a time.
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
            # the steps go into the nodes, so no stack lies beside U
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
                # the difference overwrites the coarse U, dropped after the
                # tests
                err = np.abs(np.subtract(U[:, ::2], coarse, out=coarse)
                             ).max(axis=(1, 2, 3))
                floor = 4e-15 * n
                passed = err <= np.maximum(_ACCEPT_CHANGE * tols[active], floor)
                # U at the node at or before each sample, copied out of
                # the round
                for j in np.flatnonzero(passed).tolist():
                    p = int(active[j])
                    k, on = _nodes(t_grids[p], h[j])
                    off = np.flatnonzero(~on)
                    results[p] = U[j, k[rows[p]]]
                    tails.append((p, off, k[off] * h[j],
                                  t_grids[p][off] - k[off] * h[j]))
                # the sixth-order test of the tail-free points it held
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
                    _project(_project(E))
                    if p in last and np.abs(E - last[p]).max() <= max(
                            _ACCEPT_CHANGE_6 * tols[p], floor):
                        passed[j] = True
                        results[p] = E[rows[p]]
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

    # a chunk of tail steps holds every step of a running point between its
    # first and its last
    if tails:
        tails.sort(key=lambda tail: tail[0])
        owners, offs, starts, lengths = zip(*tails)
        del tails
        points = np.repeat(owners, [off.size for off in offs])
        # per point, its rows that take a step and the index of that step
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


def _tail_rows(off: np.ndarray, size: int, rows: np.ndarray | slice,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a result that take a tail step, and the step each
    takes, an index into off, the samples among size that take one;
    ordered by step.  rows indexes the samples behind the rows."""
    step_of = np.full(size, -1)
    step_of[off] = np.arange(off.size)
    step_of = step_of[rows]
    dest = np.flatnonzero(step_of >= 0)
    step = step_of[dest]
    order = np.argsort(step, kind="stable")
    return dest[order], step[order]

