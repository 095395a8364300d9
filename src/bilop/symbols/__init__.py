from .core import Symbol, SymbolClassParams, symbol_from_expr, absnorm
from .expr import parse_symbol_expr, pretty
from .seminorms import SeminormEntry, SeminormReport, estimate_seminorms
from .ftc import ftc_decompose, reconstruction_residual
from .catalog import (FAMILY_NAMES, HONEST_BS1_NAMES, MULTIPLIER_NAMES,
                      ORDER1_NAMES, catalog_names, catalog_symbol,
                      multiplier_function, symbol_catalog)

__all__ = [
    "Symbol", "SymbolClassParams", "symbol_from_expr", "absnorm",
    "parse_symbol_expr", "pretty",
    "SeminormEntry", "SeminormReport", "estimate_seminorms",
    "ftc_decompose", "reconstruction_residual",
    "FAMILY_NAMES", "HONEST_BS1_NAMES", "MULTIPLIER_NAMES", "ORDER1_NAMES",
    "catalog_names", "catalog_symbol", "multiplier_function", "symbol_catalog",
]
