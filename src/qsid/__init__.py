"""qsid: exact q-series identity verification and partition bijection auditing.

The package has four layers:

- ``series``: exact truncated power series in a, b, t, q over the
  rationals, stored as packed q-rows (one big integer per (a, b, t) row),
  with one-pass binomial factors, q-shifted-factorial constructors and
  substitutions.
- ``identities``: builders for both sides of every cataloged identity,
  the case table ``CASES`` (one entry per case) and ``run_case``, the one
  checker that compares the sides of an entry coefficient by coefficient.
- ``partitions`` / ``bijections``: brute-force partition enumeration (the
  independent oracle, which imports no series code beyond its error type;
  the catalog case ``eq3_1_partitions`` checks a series side against it)
  plus the subtract-and-mark map and 2-modular conjugation with an
  exhaustive finite-box audit.
- ``cli``: the ``qsid`` command with machine-readable reports.
"""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    Monomial,
    NegativeExponentError,
    NonNilpotentError,
    ProfileMismatchError,
    SeriesError,
    TruncatedSeries,
    TruncationProfile,
    ValidityError,
    coefficient,
    compare_series,
    invert_one_minus,
    pochhammer_finite,
    pochhammer_infinite,
    q_only_profile,
    shift_a_by_q,
    substitute_q_power,
    swap_b_t,
)
from .rational import (  # noqa: F401
    DegenerateParameterError,
    Factor,
    RationalAssignment,
    pochhammer_factors,
    product_series,
    sum_with_geometric_tail,
)
from .identities import (  # noqa: F401
    CASES,
    Check,
    MismatchTable,
    VerificationReport,
    build_eq31_partition_side,
    build_eq31_side,
    build_f_series,
    build_thm11_side,
    build_thm31_side,
    run_case,
)
from .partitions import (  # noqa: F401
    ConstraintSet,
    GeneratingPolynomial,
    Partition,
    UnboundedConstraintError,
    enumerate_partitions,
)
from .bijections import (  # noqa: F401
    AuditReport,
    BijectionBox,
    BijectionError,
    audit_bijection,
    gamma,
    gamma_inverse,
    sigma_gamma,
    two_modular_conjugate,
)
