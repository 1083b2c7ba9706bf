"""Dense-cyclic norm extensions of countable abelian groups, evaluated exactly.

The package builds an anchor table tying powers of one distinguished
generator to enumerated base-group elements, evaluates the resulting extended
norm with certificates (exact value or a proven interval), verifies the norm
axioms and density claims with seeded suites, and reproduces the
infeasibility of the construction for an unbounded norm.
"""

from .construction import (
    Anchor,
    AnchorTable,
    build_anchor_table,
    check_table_consistency,
    k_sequence,
    pair_index,
    unpair_index,
)
from .counterexample import (
    ContradictionReport,
    ScanSummary,
    counterexample_certificate,
    counterexample_scan,
)
from .errors import (
    CorruptedTableError,
    DomainError,
    ExtendTableError,
    HypothesisNotMetError,
    ShapeError,
    TableFormatError,
)
from .evaluator import (
    DEFAULT_EPSILON,
    Decomposition,
    DensityWitness,
    EvalResult,
    ExactResult,
    IntervalResult,
    best_decomposition,
    density_witness,
    evaluate,
    evaluate_truncated,
    truncated_values,
    truncation_index,
)
from .groups import (
    CappedLInf,
    CappedWeightedL1,
    CyclicScaled,
    ExtElement,
    GroupDescriptor,
    HElement,
    NormSpec,
    RationalRotation,
    base_norm,
    enumerate_h,
)
from .serialize import load_table, save_table
from .verification import (
    SuiteReport,
    Violation,
    verify_density,
    verify_extension,
    verify_norm_axioms,
    verify_truncation,
)

__version__ = "0.1.0"
