"""Direct solver for degenerate and ill-posed linear systems with
tridiagonal or upper-bidiagonal matrices, an orthogonal-reduction pipeline
for dense systems, textbook reference solvers, and a benchmark harness.
"""

from .bench import (
    AggregateRow,
    BenchRecord,
    PROFILES,
    Profile,
    aggregate,
    emit_report,
    error_metrics,
    parse_report,
    run_suite,
)
from .matrices import (
    EPS0,
    EPS1,
    BidiagonalMatrix,
    DenseMatrix,
    Matrix,
    TridiagonalMatrix,
    condition_number,
    condition_number_inf,
    dense_array,
    frobenius_norm,
    matvec,
    norm_inf,
)
from .minors import lambda_sequence
from .reduction import (
    DenseSolveDiagnostics,
    ErrorBudget,
    ReductionResult,
    backmap,
    reduce_general,
    reduce_symmetric,
    solve_dense,
)
from .reference import (
    SolverOutcome,
    solve_gauss,
    solve_qr,
    solve_svd_truncated,
    solve_tikhonov,
)
from .systems import (
    Regime,
    TestSystem,
    classify,
    generate_system,
    perturb_solution,
)
from .textio import (
    ParseError,
    matrix_to_text,
    parse_matrix,
    parse_vector,
    read_matrix,
    read_vector,
    vector_to_text,
    write_matrix,
    write_vector,
)
from .tridiagonal import (
    BlockPartition,
    CCSolution,
    ResidualBound,
    SolveFlags,
    probe_discrepancy,
    pseudo_inverse_bidiagonal,
    pseudo_inverse_tridiagonal,
    solve_cc_bidiagonal,
    solve_cc_tridiagonal,
)

__version__ = "0.1.0"
