"""The explicit decoder's scores from exact joint type counts.

A memoryless block's density against a codeword depends only on the
joint (u, y) type of the pair, so the decoder counts types rather than
looking up the log table per position. For each chunk of codeword rows
it builds one-hot planes (words == u) and multiplies them with the
one-hot output blocks: one GEMM gives the (u, y) counts of every
codeword against every block. The counts are integers no larger than
n, which float32 holds exactly below 2^24 in any summation order, and
``info.counts_scores`` dots them with the log table.
"""

from __future__ import annotations

import numpy as np

from .info import counts_scores

# float32 elements in one chunk's one-hot planes and in its counts
_CHUNK_ELEMENTS = 2**18


def backend() -> str:
    """Name of the array backend the kernels run on."""
    return "numpy"


def codebook_scores(table: np.ndarray, codewords: np.ndarray, y_blocks: np.ndarray) -> np.ndarray:
    """Density scores of output blocks against every codeword row.

    table is the (U, Y) per-symbol log table, codewords (N, n) symbols
    below U and y_blocks a stack (T, n) of symbols below Y. Returns
    (T, N) scores; a score is -inf when its pair counts a non-finite
    table cell.
    """
    n_u, n_y = table.shape
    t, n = y_blocks.shape
    count_type = np.float32 if n < 2**24 else np.float64
    # (n, T*Y): column t*Y + y flags the positions where block t reads y
    y_hot = (y_blocks.T[:, :, None] == np.arange(n_y)).astype(count_type).reshape(n, t * n_y)
    symbols = np.arange(n_u, dtype=codewords.dtype)[:, None, None]
    rows = max(1, _CHUNK_ELEMENTS // (n_u * max(n, t * n_y)))
    out = np.empty((t, codewords.shape[0]))
    for lo in range(0, codewords.shape[0], rows):
        chunk = codewords[lo : lo + rows]
        r = chunk.shape[0]
        planes = (chunk[None] == symbols).astype(count_type).reshape(n_u * r, n)
        # (U*r, T*Y) counts, reordered to one (u, y) count row per (block, codeword)
        counts = (planes @ y_hot).reshape(n_u, r, t, n_y).transpose(2, 1, 0, 3).reshape(t * r, n_u * n_y)
        out[:, lo : lo + r] = counts_scores(counts, table).reshape(t, r)
    return out
