"""Measure-valued boundary-value problems and their multipoint approximations.

Solve linear systems of complex ODEs of any order with general
(Stieltjes-measure) boundary conditions, build convergent sequences of
explicit multipoint problems, and certify the approximation error with
computable constants.
"""

from . import approx, boundary, bvp, corpus, funcspace, linode, problemfile, stieltjes
from .approx import *
from .boundary import *
from .bvp import *
from .funcspace import *
from .linode import *
from .problemfile import *
from .stieltjes import *

__version__ = "0.1.0"

__all__ = [
    *approx.__all__,
    *boundary.__all__,
    *bvp.__all__,
    *funcspace.__all__,
    *linode.__all__,
    *problemfile.__all__,
    *stieltjes.__all__,
    "corpus",
]
