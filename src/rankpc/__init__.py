"""Rank-based PC: structure learning for Gaussian copula models.

Estimates the CPDAG of a sparse DAG model from data whose margins may be
arbitrarily (monotonically) transformed, by running the PC algorithm on
rank correlation estimates of the latent Gaussian correlation matrix.

The package exports the public names of every library module, as listed in
each module's ``__all__``.  The command-line front end, ``rankpc.cli``, is
not imported here, so ``python -m rankpc.cli`` runs it without a warning.
"""

from . import citest, correlation, experiment, graph, partial, pc, simulate
from .citest import *
from .correlation import *
from .experiment import *
from .graph import *
from .partial import *
from .pc import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (correlation, citest, experiment, graph, partial, pc, simulate)
    for name in module.__all__
]
