"""Disk surgery on intersecting handlebody disks.

Free-group word algebra, Whitehead-descent primitivity testing with an
independent orbit-enumeration oracle, a combinatorial model of disk
surgery on a pair of intersecting disks, and closure reports deciding
whether surgery on a pair ever yields a primitive disk.

Each module's ``__all__`` lists its public names; this package exports
their union. Other names stay importable from their modules.
"""

from . import primitivity, report, scenarios, surgery, words
from ._kernels import BACKEND as KERNEL_BACKEND
from .primitivity import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .surgery import *  # noqa: F401,F403
from .words import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    *words.__all__,
    *primitivity.__all__,
    *surgery.__all__,
    *scenarios.__all__,
    *report.__all__,
]
