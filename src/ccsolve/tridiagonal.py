"""Block-separation direct solver for tridiagonal and upper-bidiagonal systems.

The solver walks the rows bottom-up, keeping a current block.  Row i of the
block inverse is never formed: its product with y, its entry in the block's
bottom column and its largest entry come from Horner chains over the
structure elements (a global forward chain over beta for the part left of
the diagonal, a block-local backward chain over beta_hat for the part to
the right), so a solve takes O(m) time and memory.  The explicit rows that
``tests/explicit_minors.py`` builds are the oracle the tests compare against.

Each candidate component is screened by a growth test on its coupling
correction and by a discrepancy probe on the row below; a failed screen
closes the block and opens a new one at the current row.  The solution is
assembled as x_plus = x_regular + phi, where phi re-applies the
super-diagonal couplings removed between blocks.  Structurally singular rows
(exact zeros in the minor-ratio sequences) are handled by zero rules, by
replacing exactly-zero denominators with a scaled epsilon, and - when a
degenerate block bottom cannot satisfy its own equation - by re-deriving
that row with the upstream coupling severed.

Within one block the inverse rows are semiseparable, so the per-row
quantities of a block - G, beta_hat, omega, x_i, rho_i and every probe -
can be computed as arrays.  A speculative numpy pass does this for the
first block, the whole matrix for well-posed input: four recurrences
(lambda, the left chain F, G and the right chain H) run as tight
sequential loops, everything else elementwise in the scalar arithmetic's
order, so the pass gives the scalar loop's values to the bit; its G and
beta_hat are lam and beta of the mirrored matrix J*W*J (J the exchange
matrix).  The scalar loop takes over at the first row where a check fires
or an event is recorded, and runs every block after the first.  The bands,
lambda and the left structure elements beta depend on the matrix alone and
are built once per matrix; each inverse-row chain, left or right, runs its
sums and maxima in one loop per right-hand side.

An upper-bidiagonal matrix is the p = 0 case and runs through the same
sweep: the left structure elements vanish, every block inverse is upper
triangular, and for a nonsingular well-posed matrix the solve reduces to
back substitution.  Only the residual bound changes: its band factor is
tau_hat = max|r_i| and its partition factor gamma_hat = sqrt(m/2).

The pseudo-inverse solves C3 x = e_j for every unit column.  The structure
elements do not depend on the right-hand side, so the columns share one
sweep in lock-step while they stay in the first block; only a column that
one of the solve's checks rejects is solved again on its own, on the
matrix part the group already built.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matrices import (
    EPS1,
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    _as_float_vector,
    band_maxima,
)
from .minors import (
    _beta_hat,
    _diag_and_omega,
    band_products,
    beta_sequence,
    extend_g,
    lambda_values,
    minor_ratios,
    padded_bands,
    perturbation_magnitude,
)

__all__ = [
    "BlockPartition",
    "CCSolution",
    "ResidualBound",
    "SolveFlags",
    "probe_discrepancy",
    "pseudo_inverse_bidiagonal",
    "pseudo_inverse_tridiagonal",
    "solve_cc_bidiagonal",
    "solve_cc_tridiagonal",
]


@dataclass(frozen=True)
class BlockPartition:
    """Separation boundaries l_1 = m > l_2 > ... > l_n >= 1; block k spans
    rows l_{k+1}+1..l_k (with l_{n+1} = 0)."""

    boundaries: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple(int(v) for v in self.boundaries)
        object.__setattr__(self, "boundaries", bounds)
        if not bounds or bounds[-1] < 1:
            raise ValueError("boundaries must end at a row >= 1")
        if any(a <= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("boundaries must be strictly decreasing")

    @property
    def n(self) -> int:
        return len(self.boundaries)

    @property
    def m(self) -> int:
        return self.boundaries[0]

    def gamma(self) -> float:
        """sqrt(sum_k l_k*(l_k - l_{k+1})), the partition factor of the
        residual bound; equals m for a single block."""
        bounds = self.boundaries + (0,)
        total = sum(bounds[k] * (bounds[k] - bounds[k + 1]) for k in range(self.n))
        return float(np.sqrt(total))


@dataclass(frozen=True)
class ResidualBound:
    """A posteriori residual bound eps1*tau*rho*gamma*max_y + delta."""

    tau: float
    rho: float
    gamma: float
    max_y: float
    delta: float
    bound_value: float


@dataclass
class SolveFlags:
    """Diagnostics: perturbed_singular marks a zero quantity replaced by a
    scaled epsilon, truncated_zero marks an inverse element truncated to
    zero, unresolved_top_row marks a first row whose own equation stayed
    inconsistent after all separations."""

    perturbed_singular: bool = False
    truncated_zero: bool = False
    unresolved_top_row: bool = False


@dataclass
class CCSolution:
    """Solution x_plus = x_regular + phi with its partition, the largest
    block-inverse magnitude rho, a residual bound, flags, and an event log
    of (label, row) pairs describing every non-routine step taken.

    rho is taken from the sweep's max-chains: the largest entry magnitude of
    every accepted row, computed without forming the row."""

    x_plus: np.ndarray
    x_regular: np.ndarray
    phi: np.ndarray
    partition: BlockPartition
    rho: float
    bound: ResidualBound
    flags: SolveFlags
    events: list = field(default_factory=list)


def probe_discrepancy(y_j: float, row_value: float) -> float:
    """Normalized discrepancy of one row: |y_j| - |row_value| when
    |y_j| <= 1, else 1 - |row_value|/|y_j|."""
    if abs(y_j) <= 1.0:
        return abs(y_j) - abs(row_value)
    return 1.0 - abs(row_value) / abs(y_j)


def _build_bound(w, partition, rho, max_y, x_plus, norm, tau) -> ResidualBound:
    """eps1*tau*rho*gamma*max_y + delta, where delta = eps1*norm*max|x_plus|
    + eps1*max_y covers the representation rounding of W (norm is
    norm_inf(W)) and of y.

    For a tridiagonal w, tau = max(|p_i|, |r_i|) and gamma is the partition
    factor of :meth:`BlockPartition.gamma`.  For an upper-bidiagonal w,
    tau_hat = max|r_i| and gamma_hat = sqrt((1/2)*sum_k (l_k - l_{k+1})),
    a sum that telescopes to the order m, so gamma_hat = sqrt(m/2).  tau
    is 0 for m = 1 (:class:`_Bands`).
    """
    if isinstance(w, BidiagonalMatrix):
        gamma = float(np.sqrt(0.5 * partition.m))
    else:
        gamma = partition.gamma()
    delta = EPS1 * norm * float(np.max(np.abs(x_plus))) + EPS1 * max_y
    value = EPS1 * tau * rho * gamma * max_y + delta
    return ResidualBound(tau, rho, gamma, max_y, delta, value)


def _thresholds(phi_threshold, growth_threshold) -> tuple[float, float]:
    """The probe and growth thresholds, with their defaults 2*sqrt(eps1) and
    1/eps1 (see :func:`solve_cc_tridiagonal`).  NaN raises ValueError: it
    would switch its check off silently, as inf does on purpose."""
    phi_thr = (
        2.0 * float(np.sqrt(EPS1)) if phi_threshold is None else float(phi_threshold)
    )
    growth_thr = 1.0 / EPS1 if growth_threshold is None else float(growth_threshold)
    if math.isnan(phi_thr) or math.isnan(growth_thr):
        raise ValueError("phi_threshold and growth_threshold must not be NaN")
    return phi_thr, growth_thr


def _chain_step(elem: float, elem_pert: int, unmasked: bool, y_next: float, state):
    """Extend an inverse-row chain by one structure element.

    state is (sum, max, pert): the product of one side of a row with y, the
    largest entry magnitude of that side, and the row of the nearest
    perturbed element its traversal reaches (0 for none), all before the
    factor omega.  The new state is (elem*(u*y_next + sum),
    |elem|*max(u, max), ...), where u is 1 for an unmasked column and 0 for a
    column the zero rules mask.  A zero element cuts the chain to zero, as
    the explicit row stops at its first zero product; its own perturbed row
    is still reached.
    """
    run, run_max, reach = state
    if elem == 0.0:
        return 0.0, 0.0, elem_pert
    if unmasked:
        return (
            elem * (y_next + run),
            abs(elem) * max(1.0, run_max),
            elem_pert or reach,
        )
    return elem * run, abs(elem) * run_max, elem_pert or reach


def _row_part(omega: float, elem_pert: int, state):
    """One side of an inverse row applied to y: (omega*sum, |omega|*max,
    perturbed row reached).  A zero omega (truncated diagonal) stops the
    traversal at its first element, so only that element's row is reached."""
    if omega == 0.0:
        return 0.0, 0.0, elem_pert
    run, run_max, reach = state
    return omega * run, abs(omega) * run_max, reach


def _chain_run(sums, maxes: array, elems, unmasked, ys):
    """Extend an inverse-row chain by each element of elems in turn, sums
    and maxima in one tight loop: :func:`_chain_step` without the reach,
    over memoryviews of numpy arrays (unmasked a bool array).  ys is
    iterated as given: a memoryview of one y, whose sums are an
    array('d'), or the rows of a matrix whose columns run in lock-step,
    whose sums are a list of arrays over the columns; the maxima do not
    depend on y.  The last entries of sums and maxes are the chain's state;
    each step appends the new state to them, and both are returned."""
    run, run_max = sums[-1], maxes[-1]
    for elem, unmask, y_next in zip(memoryview(elems), memoryview(unmasked), ys):
        if elem == 0.0:
            run = run_max = 0.0
        elif unmask:
            run = elem * (y_next + run)
            run_max = abs(elem) * (run_max if run_max > 1.0 else 1.0)
        else:
            run = elem * run
            run_max = abs(elem) * run_max
        sums.append(run)
        maxes.append(run_max)
    return sums, maxes


class _Bands:
    """What the sweep reads of the matrix alone, built once per matrix and
    shared by every right-hand side: the padded bands and the band products
    prod[i] = p_i*r_i as arrays, lam, the left structure elements beta with
    their perturbed rows, and the perturbed row each left chain reaches
    (:class:`_RowSweep`).  The band maxima are taken once, in one walk over
    the bands: the zero-perturbation scale, and the band factor tau and
    norm_inf(W) of the residual bound.

    Entries that the scalar loop indexes one at a time are array.array or
    lists, so that they come out as Python floats and ints; the speculative
    pass reads the same memory through numpy views.
    """

    def __init__(self, c3: TridiagonalMatrix | BidiagonalMatrix):
        m, qq, pp, rr = padded_bands(c3)
        self.matrix, self.m = c3, m
        self.norm, *maxima = band_maxima(c3)  # max|q|, max|p|, max|r|
        self.scale = max(1.0, *maxima)
        self.tau = max(maxima[1:])
        self.qq, self.pp, self.rr, self.prod = qq, pp, rr, band_products(pp, rr)
        self.lam = lambda_values(qq, self.prod)
        self.beta, first = beta_sequence(self.lam, pp, rr, self.scale)
        self.left_first = first.tolist()
        # per row, the perturbed row its left chain reaches, which does not
        # depend on y: the nearest perturbed beta at or below the row, back
        # to the chain's last cut (a zero beta)
        reach = first  # all zero unless some beta was perturbed
        if first.any():
            rows = np.arange(m + 1)
            last_pert = np.maximum.accumulate(np.where(first != 0, rows, 0))
            last_cut = np.maximum.accumulate(np.where(self.beta == 0.0, rows, 0))
            reach = np.where(last_pert >= last_cut, first[last_pert], 0)
        self.left_reach = array("q", reach.tobytes())

    @cached_property
    def lists(self):
        """(qq, pp, rr, prod, lam) as lists, for the scalar loop's indexing."""
        arrays = (self.qq, self.pp, self.rr, self.prod, self.lam)
        return tuple(a.tolist() for a in arrays)

    @cached_property
    def mirrored(self):
        """(rr, pp) of J*W*J: this matrix's padded r and p, reversed, as the
        first-block pass's :func:`beta_sequence` reads them."""
        return tuple(np.concatenate(([0.0], b[:0:-1])) for b in (self.rr, self.pp))

    def left_chains(self, y: np.ndarray):
        """(F, F_max): the left chains of rows 0..m applied to y, sums and
        maxima, in one :func:`_chain_run`.  F is an array('d') for a vector
        y and a list of arrays over the columns for a matrix; F_max does
        not depend on y.  With every beta zero (a bidiagonal matrix) every
        chain is cut at its own row, and both are zero."""
        m = self.m
        if not self.beta.any():
            zeros = array("d", bytes(8 * (m + 1)))
            return (zeros if y.ndim == 1 else [0.0] * (m + 1)), zeros
        sums = array("d", [0.0, 0.0]) if y.ndim == 1 else [0.0, 0.0]
        ys = memoryview(y[: m - 1]) if y.ndim == 1 else y[: m - 1]
        unmasked = self.lam[1:m] != 0.0
        return _chain_run(sums, array("d", [0.0, 0.0]), self.beta[2:], unmasked, ys)


class _RowSweep:
    """Block-inverse rows applied to the right-hand side y, in O(1) per row.

    Row i of the inverse of a block ending at l_k is b_ii on the diagonal
    and omega_i times a telescoping product of structure elements elsewhere
    (``inverse_row`` in tests/explicit_minors.py builds it explicitly, the
    oracle of this class).  Its product with y is therefore
    b_ii*y_i + omega_i*(H_i + F_i), with two Horner chains:

    - F_i = beta_i*(u_{i-1}*y_{i-1} + F_{i-1}) covers columns 1..i-1.  lam is
      global, so one forward pass serves every row of every block.
    - H_i = beta_hat_{i+1}*(u_{i+1}*y_{i+1} + H_{i+1}), H_{l_k} = 0, covers
      columns i+1..l_k.  It is block-local and grows as the block's top row
      moves down.

    The column-l_k entry, which drives phi, is omega_i*P_i with
    P_i = beta_hat_{i+1}*P_{i+1}.  The same chains with max in place of +
    give the largest entry magnitude, from which the solver takes rho.
    The structure elements depend on the matrix alone and come from bands,
    a :class:`_Bands`; both halves of the left chains come from one
    ``bands.left_chains(y)``, which the caller passes as left when it
    already has it.

    y is one vector (its entries become Python floats) or a matrix whose
    columns are swept in lock-step: yy[i] is then row i of y, and the sum
    chains and x_i are arrays over the columns with the same arithmetic per
    column.  Everything else - the structure elements, the corner entry and
    the max-chains - does not depend on y and stays a scalar.
    """

    def __init__(self, bands: _Bands, y: np.ndarray, left=None):
        self.m, self.scale = bands.m, bands.scale
        self.qq, self.pp, self.rr, self.prod, self.lam = bands.lists
        self.yy = [math.nan] + (y.tolist() if y.ndim == 1 else list(y))
        self.left_first, self.left_reach = bands.left_first, bands.left_reach
        self.left_sum, self.left_max = bands.left_chains(y) if left is None else left
        # G of the current block, indexed by paper row; each block rewrites
        # the entries from its bottom row down, so one list serves them all
        self.g = [math.nan] * (self.m + 1)
        self.open_block(self.m)

    def open_block(self, bottom: int):
        """Start a block whose bottom (and current top) row is bottom."""
        self.bottom = bottom
        self.g[bottom] = 1.0
        self.g[bottom - 1] = self.qq[bottom]
        self.right = (0.0, 0.0, 0)
        self.right_first = 0
        self.right_corner = 1.0

    def resume(self, i: int, g_i: float, g_above: float, right):
        """Continue the block with bottom m at row i, after a pass that took
        rows i+1..m: G[i] and G[i+1], and the right chain as row i+1 left
        it.  The corner entry of the block with bottom m never reaches phi,
        which is zero there, so it is left as the block opened."""
        self.bottom = self.m
        self.g[i], self.g[i + 1] = g_i, g_above
        self.right = right

    def extend(self, i: int):
        """Move the current block's top row down to i."""
        pp, rr, g = self.pp, self.rr, self.g
        extend_g(g, i, self.qq, self.prod)
        beta_hat, self.right_first = _beta_hat(i + 1, pp, rr, g, self.scale)
        self.right = _chain_step(
            beta_hat, self.right_first, g[i + 1] != 0.0, self.yy[i + 1], self.right
        )
        self.right_corner = 0.0 if beta_hat == 0.0 else beta_hat * self.right_corner

    def row(self, i: int):
        """Row i (the current top row) applied to y.

        Returns (x_i, corner, rho_i, events, degenerate): the product with y,
        the entry in column l_k, the largest entry magnitude, the row's
        events, and whether it is structurally degenerate (an event, or an
        exact zero at lam[i] or G[i]).  The zero rules gate each side as in
        the explicit row: lam[i] == 0 drops the right side, G[i] == 0 the left.
        """
        lam, g = self.lam, self.g
        b_ii, omega, label = _diag_and_omega(
            i, self.qq, self.pp, self.rr, lam[i], lam[i + 1], g[i], g[i - 1], self.scale
        )
        events = [(label, i)] if label else []
        x_i = b_ii * self.yy[i]
        rho_i = abs(b_ii)
        corner = b_ii
        if i < self.bottom:
            corner = 0.0
            if lam[i] != 0.0:
                part, part_max, reach = _row_part(omega, self.right_first, self.right)
                x_i += part
                rho_i = max(rho_i, part_max)
                if omega != 0.0:
                    corner = omega * self.right_corner
                if reach:
                    events.append(("perturbed-zero", reach))
        if i > 1 and g[i] != 0.0:
            left = self.left_sum[i], self.left_max[i], self.left_reach[i]
            part, part_max, reach = _row_part(omega, self.left_first[i], left)
            x_i += part
            rho_i = max(rho_i, part_max)
            if reach:
                events.append(("perturbed-zero", reach))
        degenerate = bool(events) or lam[i] == 0.0 or g[i] == 0.0
        return x_i, corner, rho_i, events, degenerate

    def severed_row(self, j: int, lam_j: float):
        """Row j as a one-row block whose local sequence restarts at j, with
        lam_local[j] = 1 and lam_local[j+1] = q_j - p_j*r_j/lam_j (lam_j
        nonzero), and G[j] = 1, G[j-1] = q_j.  Only beta_j changes on the
        left: it is the global beta_j where lam[j-1] == 0, so the chain F_j
        serves as it is, and -p_j/lam_local[j] = -p_j on F_{j-1} otherwise.
        Returns (x_j, b_jj, rho_j); the row's events are dropped."""
        qq, pp, rr, lam = self.qq, self.pp, self.rr, self.lam
        lam_next = qq[j] - pp[j] * rr[j] / lam_j
        b_jj, omega, _ = _diag_and_omega(
            j, qq, pp, rr, 1.0, lam_next, 1.0, qq[j], self.scale
        )
        x_j = b_jj * self.yy[j]
        rho_j = abs(b_jj)
        if j > 1:
            k = j if lam[j - 1] == 0.0 else j - 1
            state = self.left_sum[k], self.left_max[k], self.left_reach[k]
            if k < j:
                state = _chain_step(-pp[j], 0, True, self.yy[j - 1], state)
            part, part_max, _ = _row_part(omega, 0, state)
            x_j += part
            rho_j = max(rho_j, part_max)
        return x_j, b_jj, rho_j


def _rejects(x, rho, y_j, row_value, phi_thr: float, max_y: float):
    """Where a candidate row fails a check, elementwise over numpy values:
    x_i or rho_i is not finite, or the probe of the row j below exceeds
    phi_thr.  The probe is :func:`probe_discrepancy` of y_j against
    row_value, row j's equation evaluated with the candidate; a NaN
    row_value probes nothing, as a NaN discrepancy never splits.  max_y
    bounds |y_j|: the probe's second branch, for |y_j| > 1, is evaluated
    only when it can be taken.  Call it under np.errstate: rho*0.0 is NaN
    exactly where rho is not finite, and a zero y_j divides by zero in the
    branch np.where discards."""
    abs_y, abs_v = np.abs(y_j), np.abs(row_value)
    discrepancy = abs_y - abs_v
    if max_y > 1.0:
        discrepancy = np.where(abs_y <= 1.0, discrepancy, 1.0 - abs_v / abs_y)
    reject = np.abs(discrepancy) > phi_thr
    reject |= ~np.isfinite(x + rho * 0.0)
    return reject


# Below this order the pass's fixed cost, some sixty numpy calls, exceeds
# what it saves on the scalar loop.  Median solve times with the pass
# against without it, systems 1 and 6 (one block at these orders) on a
# 2-vCPU VM: 1.4-1.5x at m = 3, 1.1x at m = 15, 1.0x at m = 20, 0.9x at
# m = 30, 0.7-0.8x at m = 50.
_PASS_MIN_ROWS = 20


def _first_block(bands, y, max_y, chains, x_reg, x_plus, phi_thr, growth_thr):
    """Speculative pass: take rows m, m-1, ... of the block with bottom m as
    numpy arrays while the scalar loop of :func:`_solve` would simply
    accept them.

    The arrays span rows 1..m.  G and the right chain run as tight
    sequential loops (the corner entry, which drives phi, is not needed: phi
    is zero in the first block); the left chains F and F_max come in as
    chains, from :meth:`_Bands.left_chains`.  beta_hat is the beta of the
    mirrored matrix J*W*J, from :func:`beta_sequence` on G and the reversed
    bands: every quotient and product of its zero rules has the operands of
    :func:`_beta_hat`'s.  b_ii, omega, x_i, rho_i and the checks are
    elementwise, with the zero rules as masks and each operation in the
    scalar row's order, so every accepted value is the scalar loop's to the
    bit (an absent side adds -0.0, which changes nothing, where the scalar
    loop skips it).  The pass stops at the first row, from the bottom, with
    a non-finite x_i or rho_i, a failed probe of the row below, a failed
    top-row check, or an event; it stops also at a zero omega, and wherever
    a left chain reaches a perturbed beta, whether or not the scalar loop
    records it.  Row m's own stops need only G[m] = 1 and G[m-1] = q_m, so
    they are tested before any array is built.  x_reg and x_plus are
    array.array buffers by paper row, x_reg with a zero at m+1; phi is zero
    in the rows taken, and the rows above the stop leave values in x_reg
    that the scalar loop overwrites.

    Returns (i, rho, state): rows i+1..m are final in the buffers, rho is
    their largest entry magnitude, and state holds the arguments of
    :meth:`_RowSweep.resume` for row i (None when i is m, nothing taken, or
    0, the whole matrix one block).
    """
    m = bands.m
    if m < _PASS_MIN_ROWS or 0.0 >= growth_thr:
        # with growth_thr <= 0 every row above the bottom fails the growth test
        return m, 0.0, None
    qq, pp, rr, lam = bands.qq, bands.pp, bands.rr, bands.lam
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, omega_m, label = _diag_and_omega(
            m, qq, pp, rr, lam[m], lam[m + 1], 1.0, qq[m], bands.scale
        )
        if label or omega_m == 0.0 or bands.left_reach[m]:
            return m, 0.0, None
        y = np.concatenate(([math.nan], y, [math.nan]))
        neg_prod, lam_zero = -bands.prod, lam == 0.0
        f_sum, f_max = map(np.frombuffer, chains)
        f_reached = np.frombuffer(bands.left_reach, dtype=np.int64) != 0
        xr, xp = np.frombuffer(x_reg), np.frombuffer(x_plus)
        # G[m+1] (undefined), G[m] = 1, G[m-1] = q_m - 0/1 = q_m, ..., G[0]
        g_desc = minor_ratios(
            array("d", [math.nan]), 1.0, qq[m:0:-1], bands.prod[m + 1 : 1 : -1]
        )
        g_up = np.frombuffer(g_desc)
        g = g_up[::-1]  # g[i] = G[i]
        # b_ii and omega_i of rows 1..m, and the events they show
        lam_row, g_zero = lam_zero[1 : m + 1], g[1 : m + 1] == 0.0
        den = lam[2 : m + 2] + g[:m] - qq[1 : m + 1]
        b = omega = 1.0 / den
        stop = den == 0.0
        diag_zero = lam_row | g_zero
        if diag_zero.any():
            # the zero rules: an exact zero at lam[i] or G[i] zeroes b_ii and
            # takes omega_i from a band product, perturbed (an event) where
            # that is zero.  This is _diag_and_omega's rule as masks; sending
            # these rows through it one by one gives the same bits but ran
            # system 8 at m=400 (133 zero rows) 1.49x slower on a 2-vCPU VM
            d = np.where(lam_row, neg_prod[1 : m + 1], neg_prod[2 : m + 2])
            b = np.where(diag_zero, 0.0, b)
            omega = np.where(diag_zero, 1.0 / d, omega)
            stop = np.where(diag_zero, d == 0.0, stop)
        stop |= (omega == 0.0) | f_reached[1 : m + 1]
        # the right chain of rows m..1 over beta_hat_m..beta_hat_2, the beta of
        # J*W*J.  A perturbed beta_hat_{i+1} needs no stop: row i+1 then stops
        # on its zero band product, or, if lam[i+1] == 0, row i on den = 0.
        beta_hat, _ = beta_sequence(g_up, *bands.mirrored, bands.scale)
        sums, maxes = _chain_run(
            array("d", [0.0]), array("d", [0.0]),
            beta_hat[2:], g_up[1:m] != 0.0, memoryview(y[m:1:-1]),
        )
        # x_i = b_ii*y_i + omega_i*H_i + omega_i*F_i and rho_i; lam[i] == 0
        # drops the right side, G[i] == 0 the left, the bottom row has no
        # right side and row 1 no left one, and a dropped side adds -0.0,
        # which changes nothing
        abs_omega = np.abs(omega)
        right = omega * np.frombuffer(sums)[::-1]
        right_max = abs_omega * np.frombuffer(maxes)[::-1]
        left = omega * f_sum[1:]
        left_max = abs_omega * f_max[1:]
        if diag_zero.any():
            right[lam_row], right_max[lam_row] = -0.0, 0.0
            left[g_zero], left_max[g_zero] = -0.0, 0.0
        right[-1], right_max[-1] = -0.0, 0.0
        left[0], left_max[0] = -0.0, 0.0
        x = b * y[1 : m + 1]
        x += right
        x += left
        rho_i = np.maximum(np.abs(b), right_max)
        np.maximum(rho_i, left_max, out=rho_i)
        # the screen and the probe of the row below (nothing below row m)
        xr[1 : m + 1] = x
        row_value = np.full(m, math.nan)
        row_value[:-1] = (
            pp[2 : m + 1] * x[:-1]
            + qq[2 : m + 1] * xr[2 : m + 1]
            + rr[3 : m + 2] * xr[3 : m + 2]
        )
        stop |= _rejects(x, rho_i, y[2 : m + 2], row_value, phi_thr, max_y)
        top_value = float(qq[1]) * float(x[0]) + float(rr[2]) * float(xr[2])
        stop[0] |= abs(probe_discrepancy(float(y[1]), top_value)) > phi_thr
    hits = np.flatnonzero(stop)
    i = int(hits[-1]) + 1 if hits.size else 0  # rows i+1..m are taken
    if i == m:
        return m, 0.0, None
    np.add(x[i:], 0.0, out=xp[i + 1 : m + 1])
    rho = float(np.max(rho_i[i:]))
    if i == 0:
        return 0, rho, None
    t = m - i - 1  # row i+1 in the descending chains
    return i, rho, (g_desc[t + 2], g_desc[t + 1], (sums[t], maxes[t], 0))


def solve_cc_tridiagonal(
    c3: TridiagonalMatrix | BidiagonalMatrix,
    y,
    *,
    phi_threshold: float | None = None,
    growth_threshold: float | None = None,
) -> CCSolution:
    """Solve C3 x = y bottom-up with block separation in O(m) time and memory.

    C3 is tridiagonal or upper bidiagonal (the p = 0 case); the type only
    selects the band and partition factors of the residual bound.

    Each row's block-inverse product with y, its column-l_k entry and its
    largest entry come from the O(1)-per-row chains of :class:`_RowSweep`;
    no inverse row is formed.  A row counts as degenerate exactly when its
    explicit row would: the chains carry the nearest perturbed structure
    element their traversal reaches.

    The rows of the first block, which is the whole matrix for well-posed
    input, are taken by a speculative numpy pass (:func:`_first_block`)
    that gives the scalar loop's values to the bit; the scalar loop takes
    over at the first row where one of its checks fires or an event is
    recorded, and runs every block after the first.

    phi_threshold accepts a probed row whose normalized discrepancy stays
    within it.  The default 2*sqrt(eps1) sits at the well-/ill-posed regime
    boundary: a correct solve of a well-posed system leaves discrepancies of
    order mu*eps1 <= sqrt(eps1) (pure rounding), while rows that genuinely
    fail their equation land far above it, so the probe separates signal
    from arithmetic noise under double-rounded accumulation.
    growth_threshold (default 1/eps1) rejects a coupling correction too
    large to trust.  Never raises on singular or ill-posed input:
    structural zeros go through the zero rules and scaled perturbations.
    Every accepted x_regular and phi entry is finite, but x_plus and its
    residual can still overflow when growth compounds across blocks that
    each pass growth_threshold on their own (system 2 at large m).
    """
    y_arr = _as_float_vector(y, "y", c3.m)
    phi_thr, growth_thr = _thresholds(phi_threshold, growth_threshold)
    return _solve(_Bands(c3), y_arr, phi_thr, growth_thr)


def _solve(
    bands: _Bands, y: np.ndarray, phi_thr: float, growth_thr: float
) -> CCSolution:
    """:func:`solve_cc_tridiagonal` on a validated y, with the matrix part
    of the sweep already built."""
    m = bands.m
    left = bands.left_chains(y)
    # x_regular, x_plus and phi by paper row; x_reg[m+1] = 0 is the row
    # below the bottom that the probe of row m reads
    x_reg, x_plus, phi_v = (array("d", [0.0]) * (m + 2) for _ in range(3))
    max_y = float(np.max(np.abs(y)))
    i, rho, state = _first_block(
        bands, y, max_y, left, x_reg, x_plus, phi_thr, growth_thr
    )

    boundaries: list[int] = [] if i == m else [m]
    events: list = []
    new_block = i == m
    lk = m
    if i >= 1:
        sweep = _RowSweep(bands, y, left)
        qq, pp, rr, lam, yy = sweep.qq, sweep.pp, sweep.rr, sweep.lam, sweep.yy
        if state is not None:
            sweep.resume(i, *state)
        # degenerate verdicts of the block bottom and of the last row swept;
        # of the rows the pass took only the bottom can be a block bottom
        bottom_degenerate = is_degenerate = i < m and lam[m] == 0.0

    while i >= 1:
        if new_block:
            lk = i
            boundaries.append(lk)
            sweep.open_block(lk)
            new_block = False
            bottom_degenerate = is_degenerate  # the split row's, if any
        else:
            sweep.extend(i)

        x_i, corner, rho_i, row_events, is_degenerate = sweep.row(i)
        events.extend(row_events)
        if i == lk:
            bottom_degenerate = bottom_degenerate or is_degenerate
        phi_i = 0.0 if lk == m else -corner * rr[lk + 1] * x_plus[lk + 1]

        if not all(map(math.isfinite, (x_i, phi_i, rho_i))):
            if i == lk:
                x_i, phi_i, rho_i = 0.0, 0.0, 0.0
                events.append(("nonfinite-truncated", i))
            else:
                new_block = True
                events.append(("nonfinite-split", i))
                continue

        if i != lk:
            if abs(phi_i) >= growth_thr:
                new_block = True
                events.append(("growth-split", i))
                continue
            j = i + 1
            x_below = x_reg[j + 1] if j + 1 <= lk else 0.0
            row_value = pp[j] * x_i + qq[j] * x_reg[j] + rr[j + 1] * x_below
            discrepancy = probe_discrepancy(yy[j], row_value)
            if abs(discrepancy) > phi_thr:
                if j == lk and bottom_degenerate:
                    # The block bottom is structurally degenerate and its own
                    # equation cannot be met: re-derive it with the coupling
                    # from below folded in through a severed local sequence.
                    lam_j = lam[j]
                    if math.isnan(lam_j) or lam_j == 0.0:
                        lam_j = perturbation_magnitude(sweep.scale)
                        events.append(("perturbed-zero", j))
                    x_j, b_jj, rho_j = sweep.severed_row(j, lam_j)
                    phi_j = 0.0 if lk == m else -b_jj * rr[lk + 1] * x_plus[lk + 1]
                    if all(map(math.isfinite, (x_j, phi_j, rho_j))):
                        x_reg[j] = x_j
                        phi_v[j] = phi_j
                        x_plus[j] = x_j + phi_j
                        rho = max(rho, rho_j)
                        events.append(("severed-bottom", j))
                new_block = True
                events.append(("probe-split", i))
                continue

        rho = max(rho, rho_i)
        x_reg[i] = x_i
        phi_v[i] = phi_i
        x_plus[i] = x_i + phi_i
        if i == 1:
            # The probes above validated rows 2..m; check the first row's own
            # equation, splitting once if the block can still be shortened.
            x_2 = x_reg[2] if lk >= 2 else 0.0
            row_value = qq[1] * x_reg[1] + rr[2] * x_2
            discrepancy = probe_discrepancy(yy[1], row_value)
            if abs(discrepancy) > phi_thr and lk > 1:
                events.append(("top-row-split", 1))
                new_block = True
                continue
            if abs(discrepancy) > phi_thr:
                events.append(("top-row-unresolved", 1))
        i -= 1

    partition = BlockPartition(tuple(boundaries))
    kinds = {kind for kind, _ in events}
    flags = SolveFlags(
        perturbed_singular="perturbed-zero" in kinds,
        truncated_zero=bool(kinds & {"truncated-diagonal", "nonfinite-truncated"}),
        unresolved_top_row="top-row-unresolved" in kinds,
    )
    x_plus_arr = np.frombuffer(x_plus)[1 : m + 1]
    bound = _build_bound(
        bands.matrix, partition, rho, max_y, x_plus_arr, bands.norm, bands.tau
    )
    return CCSolution(
        x_plus=x_plus_arr,
        x_regular=np.frombuffer(x_reg)[1 : m + 1],
        phi=np.frombuffer(phi_v)[1 : m + 1],
        partition=partition,
        rho=rho,
        bound=bound,
        flags=flags,
        events=events,
    )


def pseudo_inverse_tridiagonal(
    c3: TridiagonalMatrix | BidiagonalMatrix,
    *,
    phi_threshold: float | None = None,
    growth_threshold: float | None = None,
) -> DenseMatrix:
    """Pseudo-inverse assembled column by column: column j is the x_plus of
    solve_cc_tridiagonal(c3, e_j).  Equals the inverse for nonsingular
    well-posed input (upper triangular for a bidiagonal one).

    The structure elements do not depend on the right-hand side, so the m
    unit columns run through one :class:`_RowSweep` in lock-step as the
    columns of the identity, accepting row after row into the first block.
    At every row each column meets every check the solve makes: finite
    x_i and rho_i, the growth test, the probe of the row below and, at row
    1, the top row's own equation.  A column that fails one leaves the
    group and is re-solved on its own at the end, so every column is
    bit-identical to its own solve; the re-solves share the group's
    :class:`_Bands`.  A column that stays one block costs O(m) numpy work,
    O(m^2) in all; a column that splits costs its own O(m) sweep on top.
    The working set is O(m^2): the identity, the left chain of every row
    and the result, about three m-by-m float arrays.
    """
    m = c3.m
    phi_thr, growth_thr = _thresholds(phi_threshold, growth_threshold)
    result = np.empty((m, m))
    split = np.zeros(m, dtype=bool)
    bands = _Bands(c3)
    # Overflow in the group is data: a non-finite x_i sends its column to
    # the scalar solve, whose Python floats overflow without a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sweep = _RowSweep(bands, np.eye(m))
        qq, pp, rr, yy = sweep.qq, sweep.pp, sweep.rr, sweep.yy
        x_prev = x_below = 0.0
        for i in range(m, 0, -1):
            if i < m:
                sweep.extend(i)
            x_i, _, rho_i, _, _ = sweep.row(i)
            # the growth test |phi_i| >= growth_thr, with phi_i = 0 here
            if i < m and 0.0 >= growth_thr:
                split[:] = True
            y_j, row_value = 0.0, math.nan  # row m has no row below to probe
            if i < m:
                j = i + 1
                y_j = yy[j]
                row_value = pp[j] * x_i + qq[j] * x_prev + rr[j + 1] * x_below
            # the unit columns have |y_j| <= 1
            split |= _rejects(x_i, rho_i, y_j, row_value, phi_thr, 1.0)
            if i == 1 and m > 1:
                row_value = qq[1] * x_i + rr[2] * x_prev
                split |= _rejects(x_i, rho_i, yy[1], row_value, phi_thr, 1.0)
            if split.all():
                break
            # x_plus = x_regular + phi with phi = 0 in the first block
            np.add(x_i, 0.0, out=result[i - 1])
            x_prev, x_below = x_i, x_prev
    for j in np.flatnonzero(split):
        e_j = np.zeros(m)
        e_j[j] = 1.0
        result[:, j] = _solve(bands, e_j, phi_thr, growth_thr).x_plus
    return DenseMatrix(result)


# Bidiagonal names for the same functions, which dispatch on the matrix type;
# kept because callers use them (the benchmark in perfbench/ calls both).
solve_cc_bidiagonal = solve_cc_tridiagonal
pseudo_inverse_bidiagonal = pseudo_inverse_tridiagonal
