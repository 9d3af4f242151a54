"""Sphere graphs of connect sums of S^1 x S^2, and the machinery that
colors them: Kneser-style partition graphs, exact chromatic numbers,
double-cover homology colorings, and Farey balls with fins."""

from . import graphcore, kneser, spheres, covercolor, farey
from .graphcore import *
from .kneser import *
from .spheres import *
from .covercolor import *
from .farey import *

__all__ = graphcore.__all__ + kneser.__all__ + spheres.__all__ + covercolor.__all__ + farey.__all__
