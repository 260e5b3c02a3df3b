"""clckit: exact certification of log-concavity for coverage-like set functions.

The toolkit materializes set functions as exact rational tables, certifies
(complete) log-concavity of homogeneous restrictions and homogenizations by
Hessian inertia and indecomposability, verifies and synthesizes two-coverage
and strongly-two-coverage certificates, decomposes joint entropy into
mutual-information weights, checks ultra-log-concavity of level sequences,
and runs the down-up sampling walk with exact mixing diagnostics.
"""

from .setfn import (
    CoverageWeights,
    MobiusResult,
    SetFunctionTable,
    level_sequence,
    materialize,
    mobius_coverage_weights,
)
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    independence_indicator,
    parallel_partition,
    to_setfunction,
)
from .polynomials import HomogenizedPolynomial, MultiaffinePolynomial, quadratic_hessian
from .logconcave import (
    CertificationReport,
    Inertia,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    inertia,
    quadratic_inertia,
    ulc_check,
)
from .coverage2 import (
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
    decide_2cov,
    search_2cov_feasible,
    synth_2cov_indicator,
    synth_strong_from_parts,
    synth_strong_matroid,
    verify_2cov,
    verify_strong2cov,
)
from .entropy import JointDistribution, entropy_decomposition
from .walk import (
    WalkInstance,
    mixing_time_exact,
    sample_chain,
    transition_matrix,
    walk_instance,
)

__version__ = "0.1.0"
