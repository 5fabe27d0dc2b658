"""The explicit decoder's score gather.

Every other counts-times-log-table computation goes through
``info.counts_scores``; this one gathers per position because the
decoder scores one output block against every stored codeword.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the array backend the kernels run on."""
    return "numpy"


def codebook_scores(table: np.ndarray, codewords: np.ndarray, y_block: np.ndarray) -> np.ndarray:
    """Density score of one output block against every codeword row."""
    return table[codewords, y_block[None, :]].sum(axis=1)
