"""Dtype contract of the k-NN distance path in repro.graphs.

Graphs are built from one exact float64 path: a float32 operand paired
with a float64 one is upcast, never computed in the narrower type.
"""

import numpy as np

from repro.graphs import pairwise_sq_distances


class TestDtypePipeline:
    def test_pairwise_sq_distances_mixed_dtypes_upcast(self, rng):
        X32 = rng.normal(size=(10, 3)).astype(np.float32)
        X64 = rng.normal(size=(8, 3))
        assert pairwise_sq_distances(X32, X64).dtype == np.float64
