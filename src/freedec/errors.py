"""Exception types shared across the package, and the integer rule its checks share."""

import numpy as np


class InputError(ValueError):
    """Raised when a caller-supplied argument violates a precondition."""


class NumericalError(RuntimeError):
    """Raised when an iterative routine fails to produce a usable result."""


def is_integer(value):
    """True for an int or a numpy integer, False for a bool and everything else.

    Every size, order, count and seed the package accepts must pass it.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
