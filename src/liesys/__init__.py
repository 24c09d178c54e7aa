"""Lie systems toolkit: closure tests, fundamental-set sizes, and
(nonlinear, partial) superposition rules for ODE and flat PDE systems.

The package re-exports the names of README's API example; everything else
is imported from its submodule (liesys.expr, liesys.dynamics, ...)."""

__version__ = "0.1.0"

from .expr import Chart  # noqa: F401
from .geometry import VectorField  # noqa: F401
from .algebra import closure_test, minimal_m  # noqa: F401

__all__ = ["Chart", "VectorField", "closure_test", "minimal_m"]
