"""Exact-arithmetic verification of truncated hypergeometric congruences:
the Van Hamme quintic congruence mod p^3 and its machinery (p-adic Gamma,
Gaussian hypergeometric series over F_p, harmonic-sum decompositions,
the terminating well-poised transformation, and the polynomial lemmas)."""

from .classical_hg import (
    LowerParamPole,
    ParameterPole,
    PoleAtNonpositiveInteger,
    binom_half,
    central_binom_identity_check,
    entry20_partial_sum,
    entry20_target,
    gamma_limit_approx,
    hypergeom_terminating,
    pochhammer,
    ramanujan_partial_sum,
    ramanujan_target,
    reflection_check,
    whipple_check,
)
from .exactnum import DenominatorDivisibleByP, Residue, is_odd_prime, residue_from_rational
from .gaussian_hg import gaussian_nFn_phi, legendre
from .padic_gamma import (
    NotPIntegral,
    gamma_p_int,
    gamma_p_rational,
    product_bound,
    rhs_vanhamme,
)
from .polyengine import (
    RatPoly,
    coefficient_facts_check,
    exp_sum_check,
    lemma_sum_checks,
    p_identity_check,
    p_poly,
    pochhammer_poly,
    q_poly,
)
from .supercongruence import (
    STATEMENTS,
    VerificationRecord,
    cor5_check,
    lemma1_check,
    lemma2_check,
    lhs_vanhamme,
    lhs_vanhamme_b,
    poch_congruence_checks,
    prop3_check,
    rhs_vanhamme_b,
    theorem_os_check,
    vanhamme_b_verify,
    vanhamme_verify,
    whipple_instance_check,
    x_quantity,
    y_quantity,
    z_quantity,
)

__version__ = "0.1.0"
