"""digitseq: digit-sum statistics on Piatetski-Shapiro and Beatty sequences.

Exact floors of n**c and of Beatty lines, with the exponent c > 1 given
once as a PowerGrowth (an exact rational; an integer c gives exact powers),
the floor mismatches of a tangent Beatty line, digit sums in base q and in
the Zeckendorf system, window exponential sums, the Thue-Morse sine-product
integrals and digit Fourier tables, the sawtooth/discrepancy toolbox, and
deterministic desk-scale experiments: the substitution-rule inequalities,
audited numerically, and the paper's three applications as exact counts.
"""

from .digits import (
    digit_sum,
    digit_sum_array,
    digit_table_range_sums,
    fibonacci,
    thue_morse_sign,
    thue_morse_sign_array,
    zeckendorf_digit_sum,
    zeckendorf_digit_sum_array,
)
from .sequences import (
    BeattyLine,
    GrowthFunction,
    MismatchReport,
    PowerGrowth,
    beatty_floor,
    beatty_floor_range,
    beatty_floor_rows,
    count_floor_mismatches,
    int_nth_root,
    ps_block_chunks,
    ps_floor,
)
from .expsums import (
    FourierTable,
    SineProductDecayRow,
    WindowSumResult,
    digit_fourier_decay_constant,
    digit_fourier_table,
    fourier_coefficient_bound,
    sine_product_decay,
    sine_product_integral,
    window_exp_sum,
    window_exp_sums,
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
    IntegerExponentWarning,
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
