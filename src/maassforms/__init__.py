"""Numerical toolkit for harmonic Maass forms of polynomial growth.

Submodules:
    specfun     complex gamma, integer-order incomplete gamma, the Mellin
                kernel W_nu and the one vertical-line Mellin inversion rule
    characters  Dirichlet characters as integer exponent tables, Gauss sums,
                and the twist constant
    modgroup    integer 2x2 matrices, slash action, Gamma_0(N) cusp data
                and coset representatives
    forms       truncated Fourier expansions with exact termwise operators
                (shadow, Bol, raising/lowering, Laplacian), twists, and
                coefficient extraction
    eisenstein  Eisenstein series at cusps, their harmonic lifts, and the
                dimension formula
    lseries     completed Dirichlet series, analytic continuation,
                functional-equation residuals, twists, and inverse-Mellin
                reconstruction on specfun's line rule
    cli         the `maassforms` command-line tool
"""

from . import characters, eisenstein, forms, lseries, modgroup, specfun

__version__ = "0.1.0"

__all__ = ["characters", "eisenstein", "forms", "lseries", "modgroup", "specfun"]
