"""Numerical laboratory for minimizing movements along parameterized
energy families: scheme runs, variational interpolants, slope estimation,
dissipation diagnostics and coupled eps-tau regime sweeps.

The namespace holds ``__version__`` alone; the API is imported from its
modules, so that a command loads only the modules it runs."""

__version__ = "0.1.0"
