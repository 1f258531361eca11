"""Float sums whose value does not depend on the Python version.

From Python 3.12 on, the built-in ``sum`` adds floats with compensation
(Neumaier), while 3.10 and 3.11 add them left to right; the same floats can
then sum to different last bits, which flips score ties and changes the
emitted programs.  Every float sum whose value reaches the compiler's output
goes through :func:`left_sum` instead.
"""
from __future__ import annotations

from functools import reduce
from operator import add


def left_sum(items):
    """``0 + items[0] + items[1] + ...``, added left to right on every
    Python version: what the built-in ``sum`` computes on 3.10 and 3.11."""
    return reduce(add, items, 0)
