"""Test-only windowed operators."""

import numpy as np

from pcqg.windowed import Window, WindowedOperator


def zero_op(window: Window) -> WindowedOperator:
    """The zero operator: one all-zero diagonal grid."""
    return WindowedOperator(window, {(0,) * window.dim: np.zeros(window.shape)})
