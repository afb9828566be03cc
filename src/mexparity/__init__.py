"""mexparity: exact q-series and partition machinery for parity analysis
of mex-defined partition counts, with brute-force oracles, congruence
verification suites and an empirical congruence scanner."""

from .series import (
    Domain,
    INTEGERS,
    MOD2,
    TruncatedSeries,
    alternating_triangular,
    dissect,
    euler_pentagonal,
    euler_product,
    jacobi_cube,
    nonzero_indices,
    reduce_mod2,
    series_div,
    series_mul,
    series_recip,
    theta_psi,
)
from .errors import EnumerationLimitError, LimitError, OrderLimitError
from .partitions import (
    ENUMERATION_CEILING,
    MexSpec,
    a_t_direct,
    conjugate,
    crank,
    enumerate_partitions,
    hook_lengths,
    mex,
    p_direct,
    rank,
)
from .genfun import (
    INT_ORDER_CEILING,
    acore_mod2_series,
    acore_series,
    dissection_identity_check,
    ptt_mod2_series,
    ptt_series,
)
from .verify import (
    CongruenceClaim,
    SUITES,
    THEOREM6_RESIDUES,
    VerificationReport,
    is_pent_type,
    is_square_3n1,
    legendre_nonresidue,
    qnr_residues,
    run_suite,
    scan_congruences,
    verify_characterization,
    verify_crank_rank,
    verify_dissection_identities,
    verify_odd_progression,
    verify_power4_families,
    verify_qnr_families,
    verify_series_identities,
    verify_tcore_congruences,
    verify_theorem6,
)

__version__ = "0.1.0"
