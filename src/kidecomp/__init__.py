"""Simultaneous block/tensor decomposition of density-matrix families.

Given a finite family of density matrices on one Hilbert space, `decompose`
finds the finest decomposition of their common support into a direct sum of
tensor-product sectors under which every family member splits as a block
probability times an information factor times a shared redundant factor.
The structure is unique, self-certifying (`check_maximal`), and drives the
operational predicates in `applications`: broadcastability, imprinting,
sequential clonability, and blind-compression entropy accounting. The
`channels` module characterizes the quantum channels fixing the family, and
`cli` wraps everything for batch use.

The package root publishes each library module's `__all__`, and nothing
else but `__version__`.
"""

from . import algebra, applications, channels, exceptions, io, linalg, structure
from .algebra import *  # noqa: F403
from .applications import *  # noqa: F403
from .channels import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .io import *  # noqa: F403
from .linalg import *  # noqa: F403
from .structure import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += linalg.__all__
__all__ += algebra.__all__
__all__ += structure.__all__
__all__ += channels.__all__
__all__ += applications.__all__
__all__ += io.__all__
__all__ += exceptions.__all__
