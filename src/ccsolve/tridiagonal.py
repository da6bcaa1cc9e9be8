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

An upper-bidiagonal matrix is the p = 0 case and runs through the same
sweep: the left structure elements vanish, every block inverse is upper
triangular, and for a nonsingular well-posed matrix the solve reduces to
back substitution.  Only the residual bound changes: its band factor is
tau_hat = max|r_i| and its partition factor gamma_hat = sqrt(m/2).

The pseudo-inverse solves C3 x = e_j for every unit column.  The structure
elements do not depend on the right-hand side, so the columns share one
sweep in lock-step while they stay in the first block; only a column that
one of the solve's checks rejects is solved again on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    EPS1,
    BidiagonalMatrix,
    DenseMatrix,
    TridiagonalMatrix,
    norm_inf,
)
from .minors import (
    _beta_hat,
    _diag_and_omega,
    band_scale,
    beta_sequence,
    extend_g,
    lambda_sequence,
    padded_bands,
    perturbation_magnitude,
)

__all__ = [
    "BlockPartition",
    "CCSolution",
    "ErrorBudget",
    "ResidualBound",
    "SolveFlags",
    "probe_discrepancy",
    "pseudo_inverse_bidiagonal",
    "pseudo_inverse_tridiagonal",
    "rounding_budget",
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

    def blocks(self) -> list[tuple[int, int]]:
        """(top, bottom) row spans, bottom block first."""
        spans = []
        for k, bottom in enumerate(self.boundaries):
            top = self.boundaries[k + 1] + 1 if k + 1 < self.n else 1
            spans.append((top, bottom))
        return spans

    def gamma(self) -> float:
        """sqrt(sum_k l_k*(l_k - l_{k+1})), the partition factor of the
        residual bound; equals m for a single block."""
        bounds = self.boundaries + (0,)
        total = sum(bounds[k] * (bounds[k] - bounds[k + 1]) for k in range(self.n))
        return float(np.sqrt(total))


@dataclass(frozen=True)
class ErrorBudget:
    """Data perturbation bounds: h for the matrix, delta for the right-hand
    side (representation rounding of a banded solve, or the band truncation
    of a dense reduction)."""

    h: float = 0.0
    delta: float = 0.0


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


def rounding_budget(w, y) -> ErrorBudget:
    """Budget covering representation rounding only: h = eps1*norm_inf(W),
    delta = eps1*max|y_i|."""
    h = EPS1 * norm_inf(w)
    delta = EPS1 * float(np.max(np.abs(np.asarray(y, dtype=float))))
    return ErrorBudget(h=h, delta=delta)


def _band_tau(w) -> float:
    """max(|p_i|, |r_i|) over the off-diagonal bands."""
    if w.m <= 1:
        return 0.0
    tau = float(np.max(np.abs(w.r)))
    if isinstance(w, TridiagonalMatrix):
        tau = max(tau, float(np.max(np.abs(w.p))))
    return tau


def _build_bound(w, partition, rho, max_y, x_plus, budget) -> ResidualBound:
    """eps1*tau*rho*gamma*max_y + delta, delta = h*max|x_plus| + budget.delta.

    For a tridiagonal w, tau = max(|p_i|, |r_i|) and gamma is the partition
    factor of :meth:`BlockPartition.gamma`.  For an upper-bidiagonal w,
    tau_hat = max|r_i| and gamma_hat = sqrt((1/2)*sum_k (l_k - l_{k+1})),
    a sum that telescopes to the order m, so gamma_hat = sqrt(m/2).
    """
    tau = _band_tau(w)
    if isinstance(w, BidiagonalMatrix):
        gamma = float(np.sqrt(0.5 * partition.m))
    else:
        gamma = partition.gamma()
    delta = budget.h * float(np.max(np.abs(x_plus))) + budget.delta
    value = EPS1 * tau * rho * gamma * max_y + delta
    return ResidualBound(tau, rho, gamma, max_y, delta, value)


def _thresholds(phi_threshold, growth_threshold) -> tuple[float, float]:
    """The probe and growth thresholds, with their defaults 2*sqrt(eps1) and
    1/eps1 (see :func:`solve_cc_tridiagonal`)."""
    phi_thr = (
        2.0 * float(np.sqrt(EPS1)) if phi_threshold is None else float(phi_threshold)
    )
    growth_thr = 1.0 / EPS1 if growth_threshold is None else float(growth_threshold)
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

    y is one vector (its entries become Python floats) or a matrix whose
    columns are swept in lock-step: yy[i] is then row i of y, and the sum
    chains and x_i are arrays over the columns with the same arithmetic per
    column.  Everything else - the structure elements, the corner entry and
    the max-chains - does not depend on y and stays a scalar.
    """

    def __init__(self, c3: TridiagonalMatrix | BidiagonalMatrix, y: np.ndarray):
        m, qq, pp, rr = padded_bands(c3)
        lam = lambda_sequence(c3)
        self.scale = band_scale(c3)
        beta, first = beta_sequence(lam, pp, rr, self.scale)
        qq, pp, rr, lam = qq.tolist(), pp.tolist(), rr.tolist(), lam.tolist()
        yy = [math.nan] + (y.tolist() if y.ndim == 1 else list(y))
        self.qq, self.pp, self.rr, self.lam, self.yy = qq, pp, rr, lam, yy
        # per column i: the perturbed row of beta_i and the F chain state
        self.left_first = first
        self.left = left = [(0.0, 0.0, 0)] * (m + 1)
        for i in range(2, m + 1):
            unmasked = lam[i - 1] != 0.0
            left[i] = _chain_step(beta[i], first[i], unmasked, yy[i - 1], left[i - 1])
        # G of the current block, indexed by paper row; each block rewrites
        # the entries from its bottom row down, so one list serves them all
        self.g = [math.nan] * (m + 1)
        self.open_block(m)

    def open_block(self, bottom: int):
        """Start a block whose bottom (and current top) row is bottom."""
        self.bottom = bottom
        self.g[bottom] = 1.0
        self.g[bottom - 1] = self.qq[bottom]
        self.right = (0.0, 0.0, 0)
        self.right_first = 0
        self.right_corner = 1.0

    def extend(self, i: int):
        """Move the current block's top row down to i."""
        qq, pp, rr, g = self.qq, self.pp, self.rr, self.g
        extend_g(g, i, qq, pp, rr)
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
            part, part_max, reach = _row_part(omega, self.left_first[i], self.left[i])
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
            if lam[j - 1] == 0.0:
                state = self.left[j]
            else:
                state = _chain_step(-pp[j], 0, True, self.yy[j - 1], self.left[j - 1])
            part, part_max, _ = _row_part(omega, 0, state)
            x_j += part
            rho_j = max(rho_j, part_max)
        return x_j, b_jj, rho_j


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
    m = c3.m
    y_arr = np.asarray(y, dtype=float)
    if y_arr.shape != (m,):
        raise ValueError(f"y must have length {m}")
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("y must contain only finite values")
    phi_thr, growth_thr = _thresholds(phi_threshold, growth_threshold)
    sweep = _RowSweep(c3, y_arr)
    qq, pp, rr, lam, yy = sweep.qq, sweep.pp, sweep.rr, sweep.lam, sweep.yy

    x_plus = [math.nan] * (m + 1)
    x_reg = [math.nan] * (m + 1)
    phi_v = [math.nan] * (m + 1)
    boundaries: list[int] = []
    events: list = []
    rho = 0.0
    degenerate: set[int] = set()

    i = m
    new_block = True
    lk = m

    while i >= 1:
        if new_block:
            lk = i
            boundaries.append(lk)
            sweep.open_block(lk)
            new_block = False
        else:
            sweep.extend(i)

        x_i, corner, rho_i, row_events, is_degenerate = sweep.row(i)
        events.extend(row_events)
        if is_degenerate:
            degenerate.add(i)
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
                if j == lk and j in degenerate:
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
    flags = SolveFlags(
        perturbed_singular=any(e[0] == "perturbed-zero" for e in events),
        truncated_zero=any(
            e[0] in ("truncated-diagonal", "nonfinite-truncated") for e in events
        ),
        unresolved_top_row=any(e[0] == "top-row-unresolved" for e in events),
    )
    x_plus_arr = np.array(x_plus[1 : m + 1])
    max_y = float(np.max(np.abs(y_arr)))
    bound = _build_bound(
        c3, partition, rho, max_y, x_plus_arr, rounding_budget(c3, y_arr)
    )
    return CCSolution(
        x_plus=x_plus_arr,
        x_regular=np.array(x_reg[1 : m + 1]),
        phi=np.array(phi_v[1:]),
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
    bit-identical to its own solve.  A column that stays one block costs
    O(m) numpy work, O(m^2) in all; a column that splits costs its own O(m)
    sweep on top.  The working set is O(m^2): the identity, the left chain
    of every row and the result, about three m-by-m float arrays.
    """
    m = c3.m
    phi_thr, growth_thr = _thresholds(phi_threshold, growth_threshold)
    result = np.empty((m, m))
    split = np.zeros(m, dtype=bool)
    # Overflow in the group is data: a non-finite x_i sends its column to
    # the scalar solve, whose Python floats overflow without a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sweep = _RowSweep(c3, np.eye(m))
        qq, pp, rr, yy = sweep.qq, sweep.pp, sweep.rr, sweep.yy
        x_prev = x_below = 0.0
        for i in range(m, 0, -1):
            if i < m:
                sweep.extend(i)
            x_i, _, rho_i, _, _ = sweep.row(i)
            # the growth test |phi_i| >= growth_thr, with phi_i = 0 here
            if not math.isfinite(rho_i) or (i < m and 0.0 >= growth_thr):
                split[:] = True
            split |= ~np.isfinite(x_i)
            if i < m:
                # probe_discrepancy(y_j, v) is |y_j| - |v| for a unit entry y_j
                j = i + 1
                row_value = pp[j] * x_i + qq[j] * x_prev + rr[j + 1] * x_below
                split |= np.abs(np.abs(yy[j]) - np.abs(row_value)) > phi_thr
            if i == 1 and m > 1:
                row_value = qq[1] * x_i + rr[2] * x_prev
                split |= np.abs(np.abs(yy[1]) - np.abs(row_value)) > phi_thr
            if split.all():
                break
            # x_plus = x_regular + phi with phi = 0 in the first block
            np.add(x_i, 0.0, out=result[i - 1])
            x_prev, x_below = x_i, x_prev
    for j in np.flatnonzero(split):
        e_j = np.zeros(m)
        e_j[j] = 1.0
        solution = solve_cc_tridiagonal(
            c3, e_j, phi_threshold=phi_threshold, growth_threshold=growth_threshold
        )
        result[:, j] = solution.x_plus
    return DenseMatrix(result)


# Bidiagonal names for the same functions, which dispatch on the matrix type;
# kept because callers use them (the benchmark in perfbench/ calls both).
solve_cc_bidiagonal = solve_cc_tridiagonal
pseudo_inverse_bidiagonal = pseudo_inverse_tridiagonal
