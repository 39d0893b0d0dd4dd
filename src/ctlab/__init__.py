"""ctlab: a numerical laboratory for quantum channel tomography.

The package provides exact Haar-moment formulas, channel/dilation algebra,
quantum comb and tester machinery, hard packing instances for rank-limited
channel estimation, and a pure-state-oracle isometry tomography pipeline,
together with a deterministic CLI (``ctlab``).
"""

__version__ = "0.1.0"

from .linalg import ATOL, RANK_RTOL, FactorLayout
from .channels import Channel, Isometry, dilate
from .combs import LabelledOperator, Tester, link_product

__all__ = [
    "__version__",
    "ATOL",
    "RANK_RTOL",
    "FactorLayout",
    "Channel",
    "Isometry",
    "dilate",
    "LabelledOperator",
    "Tester",
    "link_product",
]
