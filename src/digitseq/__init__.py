"""digitseq: digit-sum statistics on Piatetski-Shapiro and Beatty sequences.

Exact floors of n**c for rational c and of Beatty lines, the floor
mismatches of a tangent Beatty line, exponential-sum kernels for digit
functions (binary, general base, and Zeckendorf), the sawtooth/discrepancy
toolbox, and deterministic desk-scale experiments that audit the
substitution-rule inequalities numerically.
"""

from .digits import (
    DecompositionSegment,
    ZeckendorfRepr,
    digit_sum,
    digit_sum_array,
    fibonacci,
    thue_morse_prefix_sum,
    thue_morse_sign,
    thue_morse_sign_array,
    zeckendorf,
    zeckendorf_decompose,
    zeckendorf_digit_sum,
    zeckendorf_digit_sum_array,
)
from .sequences import (
    BeattyLine,
    GrowthFunction,
    IntegerExponentWarning,
    MismatchReport,
    PSSpec,
    PowerGrowth,
    beatty_floor,
    beatty_floor_range,
    beatty_floor_rows,
    count_floor_mismatches,
    int_nth_root,
    ps_block,
    ps_block_chunks,
    ps_floor,
)
from .expsums import (
    CharRoot,
    FourierTable,
    SineProductResult,
    WindowSumResult,
    ZeckBlockSum,
    char_root_modulus,
    digit_fourier_decay_constant,
    digit_fourier_table,
    fourier_coefficient_bound,
    joint_digit_expsum,
    joint_rate_parameters,
    sine_product_decay,
    sine_product_integral,
    window_exp_sum,
    window_exp_sums,
    zeckendorf_block_sum,
    zeckendorf_block_sums,
    zeckendorf_window_expsum,
)
from .harmonic import (
    VaalerApprox,
    build_vaaler_approx,
    erdos_turan_bound,
    exact_discrepancy,
    fejer_majorant,
    sawtooth,
    vaaler_psi_h,
)
from .experiments import (
    ArithmeticFunction,
    DeviationReport,
    ExponentAudit,
    IntegralEstimate,
    PHI_FUNCTIONS,
    ResidueCountReport,
    Theorem1Audit,
    TmDensityReport,
    audit_theorem1,
    beatty_substitution_integral,
    corollary1_exponent_audit,
    joint_residue_experiment,
    substitution_deviation,
    tm_density_experiment,
    window_l1_integral,
    zeckendorf_residue_experiment,
)
from .reports import serialize_report

__version__ = "0.1.0"
