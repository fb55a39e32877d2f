"""The boundary-path H̄ variance against the dense-adjoint oracle.

:class:`~repro.accuracy.models.ConstrainedTreeUncertaintyModel` sums
``σ²‖Mᵀu‖²`` over a range's two boundary root-to-leaf paths in
O(k·log n); :mod:`dense_adjoint_oracle` evaluates the same quantity by
running the adjoint inference passes over the whole tree.  The two must
agree to 1e-11 relative on every tree shape the engines serve: several
branching factors, padded (non-power-of-k) domains, degenerate ranges
and domains, widths up to 2¹⁶, and sharded composites with mixed ε.

Run standalone with ``pytest -m equivalence``.
"""

from __future__ import annotations

import numpy as np
import pytest
from dense_adjoint_oracle import dense_adjoint_variances

from repro.accuracy.models import (
    CompositeUncertaintyModel,
    ConstrainedTreeUncertaintyModel,
    composite_uncertainty_model,
)

pytestmark = pytest.mark.equivalence

RELATIVE = 1e-11


def random_ranges(rng, domain_size, count):
    a = rng.integers(0, domain_size, size=count)
    b = rng.integers(0, domain_size, size=count)
    return np.minimum(a, b), np.maximum(a, b)


def assert_matches_oracle(model, los, his):
    got = model.range_variances(los, his)
    want = dense_adjoint_variances(model, los, his)
    np.testing.assert_allclose(got, want, rtol=RELATIVE, atol=0.0)


@pytest.mark.parametrize("branching", [2, 3, 4, 16])
@pytest.mark.parametrize("leaves", [1, 2, 3, 5])
def test_complete_and_padded_trees(branching, leaves):
    # ``leaves`` powers of k give complete trees; a power minus a few
    # leaves (or one more) pads the domain up to the next power.
    rng = np.random.default_rng(100 * branching + leaves)
    for domain_size in {branching**leaves, branching**leaves - 3, branching**leaves + 1}:
        if not 1 <= domain_size <= 1 << 16:
            continue
        model = ConstrainedTreeUncertaintyModel(domain_size, 0.7, branching)
        assert_matches_oracle(model, *random_ranges(rng, domain_size, 60))


@pytest.mark.parametrize("branching", [2, 3, 4, 16])
def test_single_leaf_and_whole_domain_ranges(branching):
    domain_size = branching**3 - 1
    model = ConstrainedTreeUncertaintyModel(domain_size, 1.3, branching)
    leaves = np.arange(domain_size)
    assert_matches_oracle(model, leaves, leaves)
    assert_matches_oracle(model, [0], [domain_size - 1])


@pytest.mark.parametrize("branching", [2, 3, 16])
def test_one_leaf_domain(branching):
    model = ConstrainedTreeUncertaintyModel(1, 0.5, branching)
    assert_matches_oracle(model, [0], [0])
    # One leaf is the root: its variance is one node's noise.
    assert model.range_variances([0], [0])[0] == model.node_variance


@pytest.mark.parametrize(
    "domain_size,branching", [(1 << 16, 2), (1 << 16, 4), (1 << 16, 16), (50_000, 2)]
)
def test_realistic_widths(domain_size, branching):
    rng = np.random.default_rng(domain_size + branching)
    model = ConstrainedTreeUncertaintyModel(domain_size, 0.5, branching)
    los, his = random_ranges(rng, domain_size, 40)
    # Ranges that hug the domain edges and the middle of the tree.
    los = np.concatenate([los, [0, 0, domain_size // 2 - 1, domain_size - 1]])
    his = np.concatenate(
        [his, [domain_size - 1, domain_size // 2, domain_size // 2, domain_size - 1]]
    )
    assert_matches_oracle(model, los, his)


def test_sharded_composite_with_mixed_epsilons():
    rng = np.random.default_rng(20100911)
    domain_size = 3000
    starts = np.array([0, 1024, 2048, 2500, 2900])
    epsilons = [0.5, 1.0, 0.5, 0.25, 1.0]
    model = composite_uncertainty_model(starts, domain_size, "H_bar", epsilons)
    assert isinstance(model, CompositeUncertaintyModel)
    los, his = random_ranges(rng, domain_size, 80)
    ends = np.append(starts[1:], domain_size) - 1
    want = np.zeros(los.size)
    for shard, start in enumerate(starts):
        piece = ConstrainedTreeUncertaintyModel(
            int(ends[shard] - start + 1), epsilons[shard]
        )
        overlap = (los <= ends[shard]) & (his >= start)
        piece_los = np.maximum(los[overlap], start) - start
        piece_his = np.minimum(his[overlap], ends[shard]) - start
        want[overlap] += dense_adjoint_variances(piece, piece_los, piece_his)
    np.testing.assert_allclose(
        model.range_variances(los, his), want, rtol=RELATIVE, atol=0.0
    )


def test_composite_scores_each_distinct_model_once_per_batch():
    starts = np.arange(0, 1 << 12, 1 << 6)  # 64 shards of 64 leaves
    epsilons = [0.5 if shard % 4 else 1.0 for shard in range(starts.size)]
    model = composite_uncertainty_model(starts, 1 << 12, "H_bar", epsilons)
    distinct = {id(shard_model) for shard_model in model.models}
    assert len(distinct) == 2  # one per (width, ε)
    calls = []
    for shard_model in {id(m): m for m in model.models}.values():
        method = shard_model.range_variances

        def counted(los, his, method=method):
            calls.append(len(los))
            return method(los, his)

        shard_model.range_variances = counted
    los, his = random_ranges(np.random.default_rng(5), 1 << 12, 50)
    model.range_variances(los, his)
    assert len(calls) == 2
