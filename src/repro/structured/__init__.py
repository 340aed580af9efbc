"""Structured matrices (paper sections III-C and IV).

* :class:`CirculantMatrix` — ``n`` parameters, O(n log n) products,
* :class:`BlockCirculantMatrix` — the paper's weight representation,
* :class:`ToeplitzMatrix` — the related-work baseline [18],
* functional kernels (:func:`block_circulant_forward_batch`, ...) used by
  the neural-network layers,
* least-squares projections from dense matrices.
"""

from .block_circulant import BlockCirculantMatrix
from .circulant import CirculantMatrix
from .ops import (
    block_circulant_backward_batch,
    block_circulant_backward_batch_einsum,
    block_circulant_conv_spectra,
    block_circulant_forward_batch,
    block_circulant_forward_batch_einsum,
    block_circulant_matvec,
    block_circulant_to_dense,
    block_circulant_transpose_matvec,
    blockify,
    circulant_gradients,
    circulant_matvec,
    circulant_transpose_matvec,
    unblockify,
)
from .projection import nearest_block_circulant, nearest_circulant, projection_error
from .spectral import SpectrumCache
from .toeplitz import ToeplitzMatrix

__all__ = [
    "CirculantMatrix",
    "BlockCirculantMatrix",
    "SpectrumCache",
    "ToeplitzMatrix",
    "blockify",
    "unblockify",
    "circulant_matvec",
    "circulant_transpose_matvec",
    "circulant_gradients",
    "block_circulant_matvec",
    "block_circulant_transpose_matvec",
    "block_circulant_forward_batch",
    "block_circulant_conv_spectra",
    "block_circulant_forward_batch_einsum",
    "block_circulant_backward_batch",
    "block_circulant_backward_batch_einsum",
    "block_circulant_to_dense",
    "nearest_circulant",
    "nearest_block_circulant",
    "projection_error",
]
