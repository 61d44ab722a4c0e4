"""Fuzzy topic models over globally weighted term-document matrices.

Train with :func:`train`, fold unseen documents in with :func:`fold_in` or
:func:`fold_in_many`, and evaluate with :func:`classify` or
:func:`heldout_loglik`. The same operations are available on the command
line as ``flatm``.

The package exports each module's ``__all__``; a name is made public by
listing it there.
"""

from . import corpus, evaluation, fcm, model, weighting
from .corpus import *
from .weighting import *
from .fcm import *
from .model import *
from .evaluation import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *corpus.__all__,
    *weighting.__all__,
    *fcm.__all__,
    *model.__all__,
    *evaluation.__all__,
]
