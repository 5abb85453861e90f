"""Bergman kernel of the symmetrized polydisc.

Evaluation via the Cauchy permanent formula
K = per C / (pi^n prod_{j,k} (1 - lambda_j conj(mu_k))), which is smooth
at coincident preimage coordinates; certified construction of kernel
zeros in every dimension n >= 3 (residuals from the exact permanent);
sampling experiments for the dimensions where no zeros are expected;
and exact-arithmetic verification of the algebraic identities behind
the dimension-3 closed form.
"""

from .errors import SymdiscError
from .kernel import (
    KernelEval,
    QuadraticData,
    abc_coeffs,
    bracket_coeffs_ABC,
    delta_n,
    kernel_g3_mu3zero,
    kernel_gn,
    kernel_gn_stable,
)
from .symcore import (
    elem_sym,
    in_gn,
    roots_from_sym,
    vandermonde_pair,
)
from .zerofind import (
    SamplingReport,
    ZeroCertificate,
    build_certificate_chain,
    construct_zero_dim3,
    count_zeros_disc,
    fn_nontrivial,
    lift_zero,
    sample_nonvanishing,
    solve_abc_quadratic,
)

__version__ = "0.1.0"

__all__ = [
    "KernelEval",
    "QuadraticData",
    "SamplingReport",
    "SymdiscError",
    "ZeroCertificate",
    "abc_coeffs",
    "bracket_coeffs_ABC",
    "build_certificate_chain",
    "construct_zero_dim3",
    "count_zeros_disc",
    "delta_n",
    "elem_sym",
    "fn_nontrivial",
    "in_gn",
    "kernel_g3_mu3zero",
    "kernel_gn",
    "kernel_gn_stable",
    "lift_zero",
    "roots_from_sym",
    "sample_nonvanishing",
    "solve_abc_quadratic",
    "vandermonde_pair",
]
