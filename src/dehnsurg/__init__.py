"""dehnsurg: exact invariants of Dehn surgeries and a cosmetic-surgery
obstruction.

Dedekind sums and lens-space invariants, Alexander polynomials and exact
Tristram-Levine signatures from Seifert matrices, Casson-Walker and total
Casson-Gordon invariants of surgered manifolds, a homology-level model of
the hat-flavor rational surgery mapping cone with a rank oracle that
checks the closed-form rank formula, and a decision procedure reporting
which invariant distinguishes two surgeries on a knot.  The public names
are each module's ``__all__``, re-exported here, plus ``replace``.
"""

from . import dedekind, hfcone, knots, obstruction, surgery
from ._value import replace
from .dedekind import *  # noqa: F403
from .hfcone import *  # noqa: F403
from .knots import *  # noqa: F403
from .obstruction import *  # noqa: F403
from .surgery import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "replace", *dedekind.__all__, *hfcone.__all__, *knots.__all__, *obstruction.__all__, *surgery.__all__
]
