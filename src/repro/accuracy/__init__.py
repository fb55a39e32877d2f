"""The accuracy control plane: error bars, tenant SLOs, adaptive ε.

The analysis layer computes the paper's exact error expectations
(Theorem 2 bounds, Theorem 4 improvement factors) but the serving stack
historically discarded them: a tenant got a point estimate and nothing
else.  This package closes that loop in three pieces:

* :mod:`repro.accuracy.models` — per-release
  :class:`~repro.accuracy.models.UncertaintyModel` objects that turn
  ``(estimator, ε, branching, domain)`` into the *exact* variance of any
  range answer (identity and served-``H̃`` additively, ``H̄`` and the
  wavelet in closed form over the range's two boundary paths), composing
  across shard pieces exactly like counts do.
* :mod:`repro.accuracy.slo` — tenant-declared
  :class:`~repro.accuracy.slo.AccuracySLO` targets
  (``target_ci_halfwidth`` at ``confidence``), checked on every answered
  batch and folded into fleet statistics and the ``repro_accuracy_*``
  metric families.
* :mod:`repro.accuracy.schedule` — the
  :class:`~repro.accuracy.schedule.AdaptiveEpsilonAllocator`, which
  steers each streaming epoch's refresh set toward the arrival hot set
  and SLO-starved shards while charging exactly the wrapped schedule's
  envelope ε (parallel composition over disjoint shards), keeping Σε
  accounting bit-identical to uniform schedules.

Engines attach ``(variance, ci_lo, ci_hi)`` columns to batch results on
demand; the statistical test suite audits the claimed coverage
empirically at 90/95/99% and rejects mis-scaled variances.
"""

from repro.accuracy.models import (
    AdditiveUncertaintyModel,
    CompositeUncertaintyModel,
    ConstrainedTreeUncertaintyModel,
    UncertaintyModel,
    WaveletUncertaintyModel,
    composite_uncertainty_model,
    gaussian_z,
    laplace_halfwidth,
    uncertainty_model_for,
)
from repro.accuracy.schedule import AdaptiveEpsilonAllocator
from repro.accuracy.slo import (
    AccuracySLO,
    AccuracySnapshot,
    AccuracyStats,
    combine_accuracy_snapshots,
    required_epsilon,
)

__all__ = [
    "UncertaintyModel",
    "AdditiveUncertaintyModel",
    "ConstrainedTreeUncertaintyModel",
    "WaveletUncertaintyModel",
    "CompositeUncertaintyModel",
    "uncertainty_model_for",
    "composite_uncertainty_model",
    "gaussian_z",
    "laplace_halfwidth",
    "AccuracySLO",
    "AccuracySnapshot",
    "AccuracyStats",
    "combine_accuracy_snapshots",
    "required_epsilon",
    "AdaptiveEpsilonAllocator",
]
