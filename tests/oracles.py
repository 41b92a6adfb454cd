"""Reference kernels shared by several test modules.

Each restates an earlier form of a library kernel, so that the library's
faster form can be checked against it byte for byte without importing the
code under test.
"""

import numpy as np


def lattice_offsets(pattern, band):
    """(row, col) of the one period cell whose filter passes ``band``."""
    i, j = np.argwhere(pattern.band_at == band)[0]
    return int(i), int(j)


def gauss_taps(sigma, radius):
    """The sampled Gaussian on [-radius, radius], normalized to sum 1."""
    k = np.exp(-0.5 * (np.arange(-radius, radius + 1, dtype=np.float64) / sigma) ** 2)
    return k / k.sum()


def two_axis_taps(img, kernel):
    """Separable valid-mode correlation as a tap loop over each axis in turn
    (rows, then columns, on strided views). Each sum starts at its first
    product and adds the later taps in order."""
    out = img
    taps = len(kernel)
    for axis in (0, 1):
        n = out.shape[axis] - (taps - 1)
        view = [slice(None), slice(None)]

        def tap(i):
            view[axis] = slice(i, i + n)
            return kernel[i] * out[tuple(view)]

        acc = tap(0)
        for i in range(1, taps):
            acc += tap(i)
        out = acc
    return out
