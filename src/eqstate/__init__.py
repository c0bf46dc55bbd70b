"""Thermodynamic formalism for 1-D non-uniformly expanding maps.

Induced full-branch Markov schemes, the pressure equation for level
counts, maximal-entropy and Gibbs weights, Kac/Abramov projections,
pressure curves with phase-transition scans, and the appendix
inequality oracles.
"""

__version__ = "0.1.0"

from .errors import (
    AtCriticalOrBoundary,
    DivergentEntropy,
    EqstateError,
    InfiniteMeanReturn,
    NoFiniteRoot,
    NoNeutralPoints,
    NoRoot,
    NotInImage,
    NotMarkovCompatible,
    OrbitEscaped,
    OrbitHitsCritical,
    OrbitTruncated,
    OutOfRange,
    ToleranceFailure,
    UnknownGenerator,
)
from .maps import (
    Branch,
    MapSpec,
    Space,
    branch_at,
    builtin,
    deriv,
    doubling,
    evaluate,
    from_json,
    iterate,
    lsv,
    orbit,
    quadratic,
    tent,
    to_json,
)
from .zooming import (
    Contraction,
    Times,
    ZoomingReport,
    lyapunov,
    pliss_times,
    zooming_frequency,
)
from .inducing import (
    CylinderRefinement,
    InducingScheme,
    LevelCounts,
    SchemeBranch,
    analytic_counts,
    first_return_scheme,
    level_counts,
    load_scheme,
    refine,
    save_scheme,
)
from .thermo import (
    EmpiricalMeasure,
    GibbsResult,
    InducedPotential,
    MassDistribution,
    Potential,
    PressureReport,
    TailReport,
    bernoulli_entropy,
    callable_potential,
    constant_potential,
    delta_F,
    entropy_term,
    fat_perturbation,
    geometric_potential,
    gibbs_equilibrium,
    induced_potential,
    mean_return,
    mme,
    normalized_entropy,
    pressure_root,
    project_integral,
    sample_original_measure,
    tail_analysis,
    total_mass,
    truncated_gurevich,
)
from .analysis import (
    CEDiagnostic,
    EntropyRatioReport,
    LogSumReport,
    OscillationBudget,
    PressureCurve,
    SequencePair,
    collet_eckmann_diagnostic,
    dirac_competitor,
    entropy_ratio_check,
    log_sum_check,
    oscillation_budget,
    phase_transition_scan,
    pressure_curve,
    ratio_decay_probe,
)
