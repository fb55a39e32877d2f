"""The dense adjoint of H̄ inference, as a test oracle for range variances.

The served H̄ leaves are ``h̄ = M·h̃`` with i.i.d. node noise of variance
``σ²``, so a range indicator ``u`` has ``Var(uᵀh̄) = σ²‖Mᵀu‖²``.
:func:`dense_adjoint_variances` evaluates ``Mᵀu`` by building the dense
(queries × padded n) indicator and running the bottom-up/top-down
recurrences of :class:`~repro.inference.hierarchical.HierarchicalInference`
in reverse over the whole tree — O(num_nodes) per query, batched over
query chunks.  It is the direct transcription of the inference passes,
and the boundary-path closed form in
:class:`~repro.accuracy.models.ConstrainedTreeUncertaintyModel` is checked
against it.
"""

from __future__ import annotations

import numpy as np

from repro.accuracy.models import ConstrainedTreeUncertaintyModel, _check_ranges


def dense_adjoint_variances(
    model: ConstrainedTreeUncertaintyModel, los, his
) -> np.ndarray:
    """``σ²‖Mᵀu‖²`` for each range ``[lo, hi]`` of ``model``'s release."""
    los, his = _check_ranges(los, his, model.domain_size)
    flat_los = los.reshape(-1)
    flat_his = his.reshape(-1)
    out = np.empty(flat_los.size, dtype=np.float64)
    # Chunk so per-level scratch stays ~tens of MB on huge trees.
    chunk = max(1, (1 << 22) // max(1, model.layout.num_nodes))
    for start in range(0, flat_los.size, chunk):
        stop = min(start + chunk, flat_los.size)
        out[start:stop] = _chunk_variances(
            model, flat_los[start:stop], flat_his[start:stop]
        )
    return out.reshape(los.shape)


def _chunk_variances(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    k = self.layout.branching
    height = self.layout.height
    queries = los.size
    leaves = self.padded_size
    # Range indicators over the padded leaf domain via a diff/cumsum.
    diff = np.zeros((queries, leaves + 1), dtype=np.float64)
    rows = np.arange(queries)
    diff[rows, los] = 1.0
    diff[rows, his + 1] -= 1.0
    u = np.cumsum(diff[:, :leaves], axis=1)

    def childsum(level_values: np.ndarray) -> np.ndarray:
        return level_values.reshape(queries, -1, k).sum(axis=2)

    # Adjoint of the top-down pass: h[λ] = z[λ] + R((h[λ-1] - S z[λ])/k)
    # with R = repeat-k and S = child-sum (R and S are adjoint to each
    # other, and R∘S is self-adjoint).
    zbar: list[np.ndarray] = [np.empty(0)] * height
    ubar = u
    for level in range(height - 1, 0, -1):
        folded = childsum(ubar)
        zbar[level] = ubar - np.repeat(folded / k, k, axis=1)
        ubar = folded / k
    zbar[0] = ubar  # h[0] = z[0]: the root's pull arrives unchanged

    # Adjoint of the bottom-up pass: z[λ] = a_λ·h̃[λ] + c_λ·S(z[λ+1]).
    # Accumulate top-down so each level inherits its parent's pull.
    total = np.zeros(queries, dtype=np.float64)
    wbar = zbar[0]
    for level in range(height):
        node_height = height - level  # leaves have height 1
        k_l = float(k**node_height)
        k_lm1 = float(k ** (node_height - 1))
        own_weight = (k_l - k_lm1) / (k_l - 1.0) if k_l > 1.0 else 1.0
        gradient = own_weight * wbar
        total += np.einsum("ij,ij->i", gradient, gradient)
        if level + 1 < height:
            child_weight = (k_lm1 - 1.0) / (k_l - 1.0)
            wbar = zbar[level + 1] + np.repeat(
                child_weight * wbar, k, axis=1
            )
    return self.node_variance * total
