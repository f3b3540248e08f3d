"""Operator-valued extension of Black-Scholes option pricing.

Stock, Hamiltonian, coupling, and scattering are finite-dimensional
matrices; the flow's coefficient algebra, the closed-form price, its PDE
residuals, and a classical scalar oracle live in the submodules; import
them from there (``qbs.operators``, ``qbs.flows``, ``qbs.pricing``,
``qbs.config``). The root holds only the version, so ``import qbs``
loads no submodule.
"""

__version__ = "0.1.0"
