"""Unit tests for the uncertainty models: exactness against first principles.

Every model is checked against an independent implementation — the
explicit inference operator matrix for H̄, a from-scratch Haar boundary
walk for the wavelet, and the closed-form theory expressions for the
additive models — so the O(k·log n)/O(log n) fast paths can never
drift from the math they encode.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.accuracy.models import (
    _RANGE_SLICE,
    AdditiveUncertaintyModel,
    CompositeUncertaintyModel,
    ConstrainedTreeUncertaintyModel,
    WaveletUncertaintyModel,
    composite_uncertainty_model,
    gaussian_z,
    laplace_halfwidth,
    uncertainty_model_for,
)
from repro.analysis.theory import (
    error_identity_laplace_range,
    hierarchical_leaf_variance,
)
from repro.exceptions import ReproError
from repro.inference.hierarchical import HierarchicalInference
from repro.queries.hierarchical import TreeLayout
from repro.queries.wavelet import HaarWaveletQuery


def random_ranges(rng, domain_size, count):
    a = rng.integers(0, domain_size, size=count)
    b = rng.integers(0, domain_size, size=count)
    return np.minimum(a, b), np.maximum(a, b)


class TestQuantiles:
    def test_gaussian_z_matches_known_values(self):
        assert gaussian_z(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert gaussian_z(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_laplace_halfwidth_is_exact_quantile(self):
        # Var = 2b² with b = 1: P(|X| <= t) = 1 - e^{-t}.
        t = laplace_halfwidth(2.0, 0.95)
        assert 1.0 - np.exp(-t) == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_confidence_bounds_are_enforced(self, confidence):
        with pytest.raises(ReproError):
            gaussian_z(confidence)
        with pytest.raises(ReproError):
            laplace_halfwidth(1.0, confidence)


class TestAdditiveModel:
    def test_identity_matches_theory(self):
        model = uncertainty_model_for("L~", domain_size=64, epsilon=0.5)
        los = np.array([0, 3, 10])
        his = np.array([31, 3, 19])
        got = model.range_variances(los, his)
        want = [error_identity_laplace_range(m, 0.5) for m in (32, 1, 10)]
        assert got == pytest.approx(want, rel=1e-12)

    def test_hierarchical_leaves_use_padded_height(self):
        # domain 10 pads to 16 -> height 5 for the sensitivity/σ² figure.
        model = uncertainty_model_for("H~", domain_size=10, epsilon=1.0)
        height = TreeLayout(16, branching=2).height
        leaf = hierarchical_leaf_variance(height, 1.0)
        assert model.range_variances([0], [9])[0] == pytest.approx(10 * leaf)

    def test_single_leaf_uses_exact_laplace_quantile(self):
        model = uncertainty_model_for("L~", domain_size=8, epsilon=1.0)
        half = model.interval_halfwidths([2, 0], [2, 7], 0.95)
        assert half[0] == pytest.approx(laplace_halfwidth(2.0, 0.95))
        assert half[1] == pytest.approx(gaussian_z(0.95) * np.sqrt(16.0))

    def test_range_validation(self):
        model = uncertainty_model_for("L~", domain_size=8, epsilon=1.0)
        with pytest.raises(ReproError):
            model.range_variances([0], [8])
        with pytest.raises(ReproError):
            model.range_variances([-1], [3])
        with pytest.raises(ReproError):
            model.range_variances([5], [4])

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ReproError):
            AdditiveUncertaintyModel(0.0, 8, kind="L~")
        with pytest.raises(ReproError):
            uncertainty_model_for("L~", domain_size=8, epsilon=0.0)
        with pytest.raises(ReproError):
            uncertainty_model_for("nope", domain_size=8, epsilon=1.0)


def explicit_hbar_variances(domain_size, epsilon, branching, los, his):
    """σ²‖Mᵀu‖² via the explicit inference operator, column by column."""
    padded = 1
    while padded < domain_size:
        padded *= branching
    layout = TreeLayout(padded, branching=branching)
    inference = HierarchicalInference(layout)
    # infer() is linear: applying it to the identity yields the operator
    # acting on each basis vector, i.e. rows of M indexed by input node.
    operator = inference.infer(np.eye(layout.num_nodes))
    leaves = operator[:, layout.leaf_offset :]  # (input node, leaf)
    sigma2 = hierarchical_leaf_variance(layout.height, epsilon)
    out = []
    for lo, hi in zip(los, his):
        weights = leaves[:, lo : hi + 1].sum(axis=1)  # Mᵀu
        out.append(sigma2 * float(weights @ weights))
    return np.array(out)


class TestConstrainedTreeModel:
    @pytest.mark.parametrize(
        "domain_size,branching", [(16, 2), (10, 2), (27, 3), (8, 4), (1, 2)]
    )
    def test_adjoint_matches_explicit_operator(self, domain_size, branching):
        rng = np.random.default_rng(7 * domain_size + branching)
        model = ConstrainedTreeUncertaintyModel(
            domain_size, epsilon=0.7, branching=branching
        )
        los, his = random_ranges(rng, domain_size, 25)
        want = explicit_hbar_variances(domain_size, 0.7, branching, los, his)
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-10
        )

    def test_whole_domain_range_is_root_variance(self):
        # The full-range sum is the (consistent) root estimate z[0],
        # whose variance Theorem 4 machinery gives directly.
        model = ConstrainedTreeUncertaintyModel(16, epsilon=1.0, branching=2)
        got = model.range_variances([0], [15])[0]
        want = explicit_hbar_variances(16, 1.0, 2, [0], [15])[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_chunking_is_invisible(self):
        for domain_size in (16, 1 << 16):
            model = ConstrainedTreeUncertaintyModel(domain_size, epsilon=1.0)
            rng = np.random.default_rng(3)
            los, his = random_ranges(rng, domain_size, 400)
            whole = model.range_variances(los, his)
            chunked = ConstrainedTreeUncertaintyModel(domain_size, epsilon=1.0)
            # Split the batch every way a serving path might, through the
            # same public surface: each range's variance is bit-identical.
            for size in (1, 3, 8, 64, 399):
                chunks = [
                    chunked.range_variances(los[i : i + size], his[i : i + size])
                    for i in range(0, los.size, size)
                ]
                assert np.array_equal(np.concatenate(chunks), whole)
            order = rng.permutation(los.size)
            reordered = chunked.range_variances(los[order], his[order])
            assert np.array_equal(reordered, whole[order])

    def test_large_batches_run_in_slices_with_bounded_scratch(self):
        model = ConstrainedTreeUncertaintyModel(1 << 16, epsilon=1.0)
        rng = np.random.default_rng(5)
        los, his = random_ranges(rng, 1 << 16, 16 * _RANGE_SLICE + 17)
        whole = model.range_variances(los, his)
        # Cuts that straddle the internal slice boundaries change nothing.
        for size in (1000, _RANGE_SLICE - 1, _RANGE_SLICE + 1):
            chunks = [
                model.range_variances(los[i : i + size], his[i : i + size])
                for i in range(0, los.size, size)
            ]
            assert np.array_equal(np.concatenate(chunks), whole)
        # Peak memory grows with the output only, not with the scratch.
        peaks = []
        for count in (_RANGE_SLICE, los.size):
            tracemalloc.start()
            model.range_variances(los[:count], his[:count])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16 * los.size


def brute_force_wavelet_variances(domain_size, epsilon, los, his):
    """Independent Haar boundary walk: every (level, node) weight squared."""
    padded = 1
    while padded < domain_size:
        padded *= 2
    base_scale, detail_scales = HaarWaveletQuery(padded).coefficient_scales(
        epsilon
    )
    out = []
    for lo, hi in zip(los, his):
        m = hi - lo + 1
        variance = 2.0 * base_scale**2 * m * m
        for level, scale in enumerate(detail_scales):
            width = padded >> level
            half = width >> 1
            for node_start in range(0, padded, width):
                mid = node_start + half
                left = max(0, min(hi, mid - 1) - max(lo, node_start) + 1)
                right = max(
                    0, min(hi, node_start + width - 1) - max(lo, mid) + 1
                )
                variance += 2.0 * scale**2 * (left - right) ** 2
        out.append(variance)
    return np.array(out)


class TestWaveletModel:
    @pytest.mark.parametrize("domain_size", [16, 13, 32, 1])
    def test_matches_brute_force(self, domain_size):
        rng = np.random.default_rng(100 + domain_size)
        model = WaveletUncertaintyModel(domain_size, epsilon=0.9)
        los, his = random_ranges(rng, domain_size, 30)
        want = brute_force_wavelet_variances(domain_size, 0.9, los, his)
        assert model.range_variances(los, his) == pytest.approx(
            want, rel=1e-12
        )

    def test_unit_query_matches_expected_leaf_variance(self):
        model = WaveletUncertaintyModel(16, epsilon=1.0)
        want = HaarWaveletQuery(16).expected_leaf_variance(1.0)
        got = model.range_variances(np.arange(16), np.arange(16))
        assert got == pytest.approx(np.full(16, want), rel=1e-12)


class TestCompositeModel:
    def test_homogeneous_identity_collapses_bit_identically(self):
        mono = uncertainty_model_for("L~", domain_size=64, epsilon=0.5)
        rng = np.random.default_rng(11)
        los, his = random_ranges(rng, 64, 50)
        want = mono.range_variances(los, his)
        for num_shards in (2, 4, 7):
            starts = np.linspace(0, 64, num_shards, endpoint=False).astype(
                np.int64
            )
            model = composite_uncertainty_model(
                starts, 64, "L~", [0.5] * num_shards
            )
            # The collapse makes split ranges bit-identical, not just close.
            assert isinstance(model, AdditiveUncertaintyModel)
            assert np.array_equal(model.range_variances(los, his), want)

    def test_heterogeneous_epsilons_sum_per_piece(self):
        starts = np.array([0, 8])
        model = composite_uncertainty_model(starts, 16, "L~", [0.5, 1.0])
        assert isinstance(model, CompositeUncertaintyModel)
        got = model.range_variances([4], [11])[0]
        want = error_identity_laplace_range(4, 0.5) + error_identity_laplace_range(
            4, 1.0
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_constrained_pieces_match_manual_sum(self):
        starts = np.array([0, 8])
        model = composite_uncertainty_model(starts, 16, "H_bar", [0.5, 0.5])
        left = ConstrainedTreeUncertaintyModel(8, 0.5)
        right = ConstrainedTreeUncertaintyModel(8, 0.5)
        got = model.range_variances([2, 0], [13, 7])
        want = [
            left.range_variances([2], [7])[0]
            + right.range_variances([0], [5])[0],
            left.range_variances([0], [7])[0],
        ]
        assert got == pytest.approx(want, rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            composite_uncertainty_model([0, 8], 16, "L~", [0.5])
        with pytest.raises(ReproError):
            CompositeUncertaintyModel([0, 8], 16, [])
