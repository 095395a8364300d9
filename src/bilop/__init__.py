"""Spectral toolkit for bilinear pseudodifferential operators on a
periodic grid: symbol classes and seminorms, operator application and
commutators, transpose algebra, truncated-kernel quadrature, and a
verification harness (mean oscillation, weak boundedness, norm scans,
compactness probes).
"""
from .errors import (BilopError, BudgetError, ConfigError, DomainError,
                     InvalidExponentError, InvalidInputError, SymbolParseError,
                     ToleranceError)
from .grid import (Grid, GridFunction, SpectralFunction, eval_at, fft_forward,
                   fft_inverse, fractional_derivative, lp_norm,
                   spectral_derivative, translate)
from .kernel import (CzCertification, DecayFitReport, KernelQuadrature,
                     KernelSlice, certify_cz_commutator_kernel,
                     fit_kernel_decay, kernel_at, kernel_slice)
from .operator import (BilinearOperator, CommutatorOperator,
                       DenseBilinearOperator, apply, commutator, dense_tensor,
                       make_operator, pairing, transpose,
                       verify_transpose_identities)
from .symbols import (FAMILY_NAMES, HONEST_BS1_NAMES, MULTIPLIER_NAMES,
                      ORDER1_NAMES, SeminormEntry, SeminormReport, Symbol,
                      SymbolClassParams, catalog_symbol, estimate_seminorms,
                      ftc_decompose, multiplier_function, parse_symbol_expr,
                      pretty, reconstruction_residual, symbol_catalog,
                      symbol_from_expr)

__version__ = "0.1.0"
