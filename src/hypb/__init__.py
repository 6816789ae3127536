"""Weighted Cauchy and Beurling transforms on the upper half-plane.

Core surface:

    grid        cell-centered boxes, fields, norms
    calculus    Wirtinger derivatives and their (Im z)-weighted versions
    kernels     singular kernel tables with exact cell averages
    transforms  the integral operators, fft and quadrature paths
    testfuncs   analytic inputs with closed-form derivative data
    whittaker   the degenerate confluent ODE side: solutions, classifier
    verify      the named check registry behind `hypb verify`
"""

from .grid import Field, GridSpec, PlaneKind, WeightKind, inner_product, lp_norm
from .report import CheckReport

__all__ = [
    "Field",
    "GridSpec",
    "PlaneKind",
    "WeightKind",
    "inner_product",
    "lp_norm",
    "CheckReport",
]

__version__ = "0.1.0"
