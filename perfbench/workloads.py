"""The three workloads: ``serve``, ``refresh`` and ``scored``.

Each workload hosts one sharded and one monolithic tenant in a single
``EngineFleet`` with a durable store, and drives them closed loop: one
client, one outstanding call, no think time.  The inputs (counts, range
batches, arrivals) are generated from the seed before any timing.

Every workload reports the same end-to-end metrics so that runs can be
compared metric by metric; what the shared names time on each workload
is listed in ``README.md``.  Workload-specific figures (for example
``ingest_rows_per_s`` or ``slo_ok_ratio``) are reported as extras.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import fleet_api as api
from measure import digest, percentile_ms, range_truth, tree_peak_rss_mb
from spans import NullRecorder

WORKLOADS = ("serve", "refresh", "scored")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``FULL`` is the measured one."""

    #: submits in the count-boxed serving phase of a traced run
    traced_steps: int
    # serve
    serve_sharded_size: int
    serve_shards: int
    serve_mono_size: int
    bulk_ranges: int
    mono_bulk_ranges: int
    interactive_ranges: int
    interactive_per_cycle: int
    serve_eval_ranges: int
    # refresh
    stream_size: int
    stream_shards: int
    mono_stream_size: int
    epochs: int
    stream_rows: int
    mono_stream_rows: int
    stream_batch_ranges: int
    stream_batches_per_epoch: int
    # scored
    scored_size: int
    scored_shards: int
    scored_ranges: int
    scored_eval_ranges: int
    # warm restarts (untraced): at least RESTARTS, for at least this long
    restart_seconds: float


FULL = Scale(
    traced_steps=400,
    serve_sharded_size=1 << 22, serve_shards=64, serve_mono_size=1 << 20,
    # 100k ranges take ~1.5 ms on the monolithic tenant, under the 2 ms
    # floor that keeps sub-millisecond noise out of the percentiles.
    bulk_ranges=100_000, mono_bulk_ranges=256_000,
    interactive_ranges=1_000, interactive_per_cycle=4, serve_eval_ranges=100_000,
    stream_size=1 << 20, stream_shards=16, mono_stream_size=1 << 18,
    epochs=100, stream_rows=20_000, mono_stream_rows=5_000,
    stream_batch_ranges=10_000, stream_batches_per_epoch=2,
    scored_size=1 << 16, scored_shards=4, scored_ranges=8, scored_eval_ranges=128,
    restart_seconds=8.0,
)

TINY = Scale(
    traced_steps=20,
    serve_sharded_size=1 << 12, serve_shards=4, serve_mono_size=1 << 10,
    bulk_ranges=2_000, mono_bulk_ranges=2_000,
    interactive_ranges=50, interactive_per_cycle=2, serve_eval_ranges=500,
    stream_size=1 << 12, stream_shards=4, mono_stream_size=1 << 10,
    epochs=12, stream_rows=400, mono_stream_rows=100,
    stream_batch_ranges=200, stream_batches_per_epoch=2,
    scored_size=1 << 10, scored_shards=4, scored_ranges=8, scored_eval_ranges=32,
    restart_seconds=0.0,
)

SCALES = {"full": FULL, "tiny": TINY}

#: Set-ups, and the least number of warm restarts, per run; ``setup_s``
#: and ``restart_s`` are their medians.
SETUPS, RESTARTS = 3, 15

#: Release identity of the static tenants (``serve`` and ``scored``).
EPSILON = 0.5
TOTAL_EPSILON = 1.0
#: CI halfwidth (rows, 95%) the ``scored`` tenants declare; at ε = 0.5
#: about half of the evaluation answers meet it.
SLO_HALFWIDTH = 155.0
#: ε schedule of both streams: ε₀ = 0.5, decaying 1% per epoch.
FIRST_EPSILON, DECAY = 0.5, 0.99

SHARDED, MONO = "sharded", "mono"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: the end-to-end metrics, by their shared names
    metrics: dict[str, float]
    #: workload-specific figures, by name -> (value, unit)
    extras: dict[str, tuple[float, str]]
    #: latencies in seconds of each timed operation class
    ops: dict[str, list[float]]
    #: every set-up and warm-restart time, in seconds
    setup_times: list[float]
    restart_times: list[float]
    attempted: int
    failures: list[str]
    #: sha256 of the evaluation answers, and of the generated inputs
    answers_digest: str
    inputs_digest: str
    #: pool width of the sharded tenant's builds
    pool_workers: int = 1
    #: ``(stream, Epoch)`` per epoch advance, in order
    epoch_records: list = field(default_factory=list)


class Context:
    """Run-wide settings plus the bookkeeping shared by the workloads."""

    def __init__(self, seed, seconds, scale, work_dir, recorder=None) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.traced = recorder is not None
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.ops: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def int_seed(self, stream: int) -> int:
        return int(self.rng(stream).integers(1 << 31))

    def store_dir(self) -> Path:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.work_dir))

    def timed(self, kind, label, op_class, call):
        """Run ``call`` as one root operation; time it under ``op_class``."""
        self.attempted += 1
        with self.recorder.root(kind, label):
            start = perf_counter()
            result = call()
            elapsed = perf_counter() - start
        if op_class is not None:
            self.ops.setdefault(op_class, []).append(elapsed)
        return result, elapsed

    def serving_steps(self, minimum: int):
        """Step numbers of a serving phase, at least ``minimum`` of them.

        Untraced, the phase is time-boxed to ``seconds``: a faster commit
        gets more samples, not a shorter phase.  Traced, it is
        count-boxed to ``traced_steps``, so every commit records the same
        root calls and per-layer totals compare work for work.
        """
        if self.traced:
            yield from range(max(minimum, self.scale.traced_steps))
            return
        deadline = perf_counter() + self.seconds
        step = 0
        while step < minimum or perf_counter() < deadline:
            yield step
            step += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# -- inputs ----------------------------------------------------------------------


def skewed_counts(rng: np.random.Generator, size: int) -> np.ndarray:
    """Heavy-tailed unit counts: Poisson around a clipped Pareto intensity
    (mean about 20 rows per bucket, about one bucket in eight empty)."""
    return rng.poisson(np.minimum(10.0 * rng.pareto(1.5, size), 2000.0)).astype(np.float64)


@dataclass(frozen=True)
class Batch:
    """``count`` ranges with uniform random endpoints, and their query."""

    los: np.ndarray
    his: np.ndarray
    query: object

    @classmethod
    def draw(cls, rng, size, count) -> "Batch":
        a = rng.integers(0, size, count)
        b = rng.integers(0, size, count)
        los, his = np.minimum(a, b), np.maximum(a, b)
        return cls(los, his, api.batch(los, his))


def draw_batches(rng, size, count, number) -> list[Batch]:
    return [Batch.draw(rng, size, count) for _ in range(number)]


# -- shared phases ---------------------------------------------------------------


def repeated_setup(ctx: Context, build) -> tuple[object, Path, list[float]]:
    """Set up ``SETUPS`` times; keep the last fleet.

    Each set-up starts a fresh fleet over an empty store, after stopping
    the worker pool, so each one pays what a starting service pays.
    """
    times = []
    fleet = store = None
    for _ in range(SETUPS):
        if fleet is not None:
            del fleet
            shutil.rmtree(store, ignore_errors=True)
            gc.collect()
        api.stop_pools()
        store = ctx.store_dir()
        fleet, elapsed = ctx.timed("setup", "", None, lambda: build(store))
        times.append(elapsed)
    return fleet, store, times


def repeated_restart(ctx: Context, restart, expected: dict, names) -> list[float]:
    """Warm restarts: a fresh fleet over the same store answers one batch
    per tenant, spends ε = 0 and returns the answers it gave before.

    Host speed shifts within seconds, and 15 restarts of under 0.1 s
    fall inside one shift, so untraced the phase also runs for at least
    ``restart_seconds`` and the median spans several.  Traced, it runs
    exactly ``RESTARTS``, so every commit records the same root calls.
    """
    times = []
    deadline = perf_counter() + (0.0 if ctx.traced else ctx.scale.restart_seconds)
    while len(times) < RESTARTS or perf_counter() < deadline:
        (fleet, answers), elapsed = ctx.timed("restart", "", None, restart)
        times.append(elapsed)
        for name in names:
            ctx.check(api.spent_epsilon(fleet, name) == 0.0,
                      f"restart of {name} spent ε={api.spent_epsilon(fleet, name)!r}")
            ctx.check(np.array_equal(answers[name], expected[name]),
                      f"restart of {name} changed its answers")
        del fleet
        gc.collect()
    return times


def reference_answers(fleet, seed):
    """What a correct answer is, per static tenant.

    For the sharded tenant, ``ShardedRelease.range_sums`` on its release;
    for the monolithic one, differences of prefix sums recomputed from
    the released leaves.  Taken once, outside timing.
    """
    sharded = api.sharded_reference(fleet, SHARDED, EPSILON, seed)
    prefix = api.release_prefix(fleet, MONO, EPSILON, seed)

    def reference(name, batch):
        if name == SHARDED:
            return sharded(batch.los, batch.his)
        return prefix[batch.his + 1] - prefix[batch.los]

    return reference


def finish(ctx: Context, fleet, metrics, extras, eval_answers, truths, inputs, store,
           setup_times, restart_times, epoch_records=()):
    """Error of the last ``len(truths)`` evaluation answer arrays, memory,
    and the outcome; every evaluation answer array enters the digest."""
    answers = np.concatenate(eval_answers[len(eval_answers) - len(truths):])
    metrics["setup_s"] = median(setup_times)
    metrics["restart_s"] = median(restart_times)
    metrics["range_mae"] = float(np.mean(np.abs(answers - np.concatenate(truths))))
    metrics["peak_rss_mb"] = tree_peak_rss_mb()
    shutil.rmtree(store, ignore_errors=True)
    return Outcome(
        metrics=metrics,
        extras=extras,
        ops=ctx.ops,
        setup_times=setup_times,
        restart_times=restart_times,
        attempted=ctx.attempted,
        failures=ctx.failures,
        answers_digest=digest(eval_answers),
        inputs_digest=inputs,
        pool_workers=api.build_workers(fleet, SHARDED),
        epoch_records=list(epoch_records),
    )


# -- serve -----------------------------------------------------------------------


def serve(ctx: Context) -> Outcome:
    """Static H̄ tenants under mixed bulk and interactive traffic.

    The query path (router, planner, prefix index) does most of the work
    and builds do little.
    """
    sc = ctx.scale
    sharded_counts = skewed_counts(ctx.rng(1), sc.serve_sharded_size)
    mono_counts = skewed_counts(ctx.rng(2), sc.serve_mono_size)
    bulk = {
        SHARDED: draw_batches(ctx.rng(3), sc.serve_sharded_size, sc.bulk_ranges, 4),
        MONO: draw_batches(ctx.rng(4), sc.serve_mono_size, sc.mono_bulk_ranges, 4),
    }
    interactive = {
        SHARDED: draw_batches(ctx.rng(5), sc.serve_sharded_size, sc.interactive_ranges, 32),
        MONO: draw_batches(ctx.rng(6), sc.serve_mono_size, sc.interactive_ranges, 32),
    }
    evaluation = {
        SHARDED: Batch.draw(ctx.rng(7), sc.serve_sharded_size, sc.serve_eval_ranges),
        MONO: Batch.draw(ctx.rng(8), sc.serve_mono_size, sc.serve_eval_ranges),
    }
    counts = {SHARDED: sharded_counts, MONO: mono_counts}
    inputs = digest(
        [sharded_counts, mono_counts]
        + [a for tenant in (bulk, interactive) for batches in tenant.values()
           for b in batches for a in (b.los, b.his)]
    )
    seed = ctx.seed

    def register(fleet):
        api.register_sharded(fleet, SHARDED, sharded_counts, TOTAL_EPSILON, sc.serve_shards)
        api.register_mono(fleet, MONO, mono_counts, TOTAL_EPSILON)

    def build(store):
        fleet = api.new_fleet(store)
        register(fleet)
        for name in (SHARDED, MONO):
            api.submit(fleet, name, interactive[name][0].query, EPSILON, seed)
        return fleet

    fleet, store, setup_times = repeated_setup(ctx, build)
    reference = reference_answers(fleet, seed)

    cycle = [("bulk", SHARDED), ("bulk", MONO)] + [
        ("interactive", name)
        for _ in range(sc.interactive_per_cycle) for name in (SHARDED, MONO)
    ]
    hits0, lookups0 = api.cache_counts(fleet)
    ranges = 0
    busy = 0.0
    for step in ctx.serving_steps(len(cycle)):
        kind, name = cycle[step % len(cycle)]
        pool = bulk if kind == "bulk" else interactive
        batch = pool[name][(step // len(cycle)) % len(pool[name])]
        result, elapsed = ctx.timed(
            "submit", name, f"{kind}_{name}",
            lambda: api.submit(fleet, name, batch.query, EPSILON, seed),
        )
        ranges += batch.los.size
        busy += elapsed
        ctx.check(np.array_equal(result.answers, reference(name, batch)),
                  f"{kind} answers of {name} differ from the release's")
    hits1, lookups1 = api.cache_counts(fleet)

    restart_batches = {name: interactive[name][1] for name in (SHARDED, MONO)}
    before = {
        name: api.submit(fleet, name, restart_batches[name].query, EPSILON, seed).answers
        for name in (SHARDED, MONO)
    }

    def restart():
        fresh = api.new_fleet(store)
        register(fresh)
        return fresh, {
            name: api.submit(fresh, name, restart_batches[name].query, EPSILON, seed).answers
            for name in (SHARDED, MONO)
        }

    restart_times = repeated_restart(ctx, restart, before, (SHARDED, MONO))

    eval_answers, truths = [], []
    for name in (SHARDED, MONO):
        batch = evaluation[name]
        result, _ = ctx.timed("submit", name, None,
                              lambda: api.submit(fleet, name, batch.query, EPSILON, seed))
        ctx.check(np.array_equal(result.answers, reference(name, batch)),
                  f"evaluation answers of {name} differ from the release's")
        eval_answers.append(result.answers)
        truths.append(range_truth(counts[name], batch.los, batch.his))

    ops = ctx.ops
    metrics = {
        "queries_per_s": ranges / busy,
        "sharded_p50_ms": percentile_ms(ops["bulk_sharded"], 50),
        "sharded_p90_ms": percentile_ms(ops["bulk_sharded"], 90),
        "mono_p50_ms": percentile_ms(ops["bulk_mono"], 50),
    }
    lookups = lookups1 - lookups0
    extras = {
        "mono_p90_ms": (percentile_ms(ops["bulk_mono"], 90), "ms"),
        "bulk_samples": (len(ops["bulk_sharded"]), "count"),
        "mono_bulk_samples": (len(ops["bulk_mono"]), "count"),
        "interactive_p50_ms": (percentile_ms(ops["interactive_sharded"], 50), "ms"),
        "cache_hit_ratio": ((hits1 - hits0) / lookups if lookups else 1.0, "ratio"),
    }
    return finish(ctx, fleet, metrics, extras, eval_answers, truths, inputs, store,
                  setup_times, restart_times)


# -- refresh ---------------------------------------------------------------------


def refresh(ctx: Context) -> Outcome:
    """A long-lived sharded stream under an adaptive ε schedule beside a
    monolithic stream; each epoch ingests, advances both and serves.

    Build and write (noise, inference, pool, store, lineage, ingest) do
    most of the work and queries do little.  The epoch phase is
    count-boxed, so the ε schedule, the refresh sets and the accuracy
    are the same on every commit.
    """
    sc = ctx.scale
    sizes = {SHARDED: sc.stream_size, MONO: sc.mono_stream_size}
    base = {SHARDED: skewed_counts(ctx.rng(11), sc.stream_size),
            MONO: skewed_counts(ctx.rng(12), sc.mono_stream_size)}
    rows = {
        SHARDED: api.arrivals(sc.stream_size, sc.stream_rows, sc.epochs, ctx.int_seed(13)),
        MONO: api.arrivals(sc.mono_stream_size, sc.mono_stream_rows, sc.epochs, ctx.int_seed(14)),
    }
    served = {name: draw_batches(ctx.rng(15 + i), sizes[name], sc.stream_batch_ranges, 8)
              for i, name in enumerate((SHARDED, MONO))}
    evaluation = {name: Batch.draw(ctx.rng(17 + i), sizes[name], sc.serve_eval_ranges)
                  for i, name in enumerate((SHARDED, MONO))}
    inputs = digest([base[SHARDED], base[MONO], *rows[SHARDED], *rows[MONO]]
                    + [a for batches in served.values() for b in batches
                       for a in (b.los, b.his)])
    stream_seed = {SHARDED: ctx.int_seed(19), MONO: ctx.int_seed(20)}
    schedules = {}

    def register(fleet, counts):
        schedules[SHARDED] = api.geometric_schedule(FIRST_EPSILON, DECAY)
        schedules[MONO] = api.geometric_schedule(FIRST_EPSILON, DECAY)
        api.register_sharded_stream(fleet, SHARDED, counts[SHARDED], schedules[SHARDED],
                                    sc.stream_shards, stream_seed[SHARDED])
        api.register_stream(fleet, MONO, counts[MONO], schedules[MONO], stream_seed[MONO])

    def build(store):
        fleet = api.new_fleet(store)
        register(fleet, base)
        for name in (SHARDED, MONO):
            api.submit_stream(fleet, name, served[name][0].query)
        return fleet

    fleet, store, setup_times = repeated_setup(ctx, build)

    # The database each stream has released so far: rows fold into a
    # shard only when an epoch refreshes it, and until then they wait.
    folded = {name: base[name].copy() for name in (SHARDED, MONO)}
    pending = {name: np.zeros(sizes[name]) for name in (SHARDED, MONO)}
    width = sc.stream_size // sc.stream_shards
    ingested = 0
    ingest_s = 0.0
    ranges = 0
    busy = 0.0
    records = []
    for epoch in range(1, sc.epochs + 1):
        for name in (SHARDED, MONO):
            arrived = rows[name][epoch - 1]
            _, elapsed = ctx.timed("ingest", name, None,
                                   lambda: api.ingest(fleet, name, arrived))
            ingest_s += elapsed
            ingested += arrived.size
            pending[name] += np.bincount(arrived, minlength=sizes[name])
        for name in (SHARDED, MONO):
            record, _ = ctx.timed("advance_epoch", name, f"epoch_{name}",
                                  lambda: api.advance_epoch(fleet, name))
            if record is None:
                ctx.check(False, f"{name} skipped epoch {epoch}")
                continue
            records.append((name, record))
            schedule = schedules[name]
            ctx.check(record.epoch == epoch and record.epsilon == schedule.epsilon_for(epoch),
                      f"{name} epoch {record.epoch} charged ε={record.epsilon!r}")
            spans = ([slice(None)] if record.refreshed is None else
                     [slice(s * width, (s + 1) * width) for s in record.refreshed])
            for span in spans:
                folded[name][span] += pending[name][span]
                pending[name][span] = 0.0
            ctx.check(record.total_rows == float(folded[name].sum()),
                      f"{name} epoch {epoch} released {record.total_rows!r} rows, "
                      f"expected {float(folded[name].sum())!r}")
        for name in (SHARDED, MONO):
            for k in range(sc.stream_batches_per_epoch):
                batch = served[name][(epoch * sc.stream_batches_per_epoch + k) % len(served[name])]
                _, elapsed = ctx.timed("submit_stream", name, f"submit_{name}",
                                       lambda: api.submit_stream(fleet, name, batch.query))
                ranges += batch.los.size
                busy += elapsed
    for name in (SHARDED, MONO):
        for failure in api.stream_epsilon_checks(fleet, name, schedules[name], sc.epochs):
            ctx.check(False, failure)

    before = {name: api.submit_stream(fleet, name, served[name][1].query).answers
              for name in (SHARDED, MONO)}

    def restart():
        fresh = api.new_fleet(store)
        register(fresh, folded)
        return fresh, {name: api.submit_stream(fresh, name, served[name][1].query).answers
                       for name in (SHARDED, MONO)}

    restart_times = repeated_restart(ctx, restart, before, (SHARDED, MONO))

    eval_answers, truths = [], []
    for name in (SHARDED, MONO):
        batch = evaluation[name]
        result, _ = ctx.timed("submit_stream", name, None,
                              lambda: api.submit_stream(fleet, name, batch.query))
        eval_answers.append(result.answers)
        # Against everything ingested: rows an epoch has not folded yet
        # count as error, as they do for a reader of the stream.
        truths.append(range_truth(folded[name] + pending[name], batch.los, batch.his))

    ops = ctx.ops
    epochs = ops["epoch_sharded"]
    tenth = max(1, len(epochs) // 10)
    metrics = {
        "queries_per_s": ranges / busy,
        "sharded_p50_ms": percentile_ms(epochs, 50),
        "sharded_p90_ms": percentile_ms(epochs, 90),
        "mono_p50_ms": percentile_ms(ops["epoch_mono"], 50),
    }
    refreshed = [len(r.refreshed) for name, r in records if name == SHARDED]
    extras = {
        "ingest_rows_per_s": (ingested / ingest_s, "rows/s"),
        "epoch_samples": (len(epochs), "count"),
        "epoch_growth": (float(np.mean(epochs[-tenth:]) / np.mean(epochs[:tenth])), "ratio"),
        "refreshed_shards_per_epoch": (float(np.mean(refreshed)), "count"),
        "rows_folded": (float(sum(f.sum() for f in folded.values())), "rows"),
    }
    return finish(ctx, fleet, metrics, extras, eval_answers, truths, inputs, store,
                  setup_times, restart_times, records)


# -- scored ----------------------------------------------------------------------


def scored(ctx: Context) -> Outcome:
    """Small H̄ tenants with an accuracy SLO: every answer is scored.

    Variance scoring dominates; ``serve`` runs the same submit path
    unscored and should not move when scoring gets faster.
    """
    sc = ctx.scale
    counts = {SHARDED: skewed_counts(ctx.rng(21), sc.scored_size),
              MONO: skewed_counts(ctx.rng(22), sc.scored_size)}
    batches = {name: draw_batches(ctx.rng(23 + i), sc.scored_size, sc.scored_ranges, 64)
               for i, name in enumerate((SHARDED, MONO))}
    scored_eval = {name: Batch.draw(ctx.rng(25 + i), sc.scored_size, sc.scored_eval_ranges)
                   for i, name in enumerate((SHARDED, MONO))}
    evaluation = {name: Batch.draw(ctx.rng(27 + i), sc.scored_size, sc.serve_eval_ranges)
                  for i, name in enumerate((SHARDED, MONO))}
    inputs = digest([counts[SHARDED], counts[MONO]]
                    + [a for group in batches.values() for b in group
                       for a in (b.los, b.his)])
    seed = ctx.seed

    def register(fleet):
        api.register_sharded(fleet, SHARDED, counts[SHARDED], TOTAL_EPSILON,
                             sc.scored_shards, slo=SLO_HALFWIDTH)
        api.register_mono(fleet, MONO, counts[MONO], TOTAL_EPSILON, slo=SLO_HALFWIDTH)

    def build(store):
        fleet = api.new_fleet(store)
        register(fleet)
        for name in (SHARDED, MONO):
            api.submit(fleet, name, batches[name][0].query, EPSILON, seed)
        return fleet

    fleet, store, setup_times = repeated_setup(ctx, build)
    reference = reference_answers(fleet, seed)

    def checked(name, batch, result):
        ctx.check(result.ci_los is not None, f"{name} returned an unscored answer")
        ctx.check(np.array_equal(result.answers, reference(name, batch)),
                  f"scored answers of {name} differ from the unscored ones")

    ranges = 0
    busy = 0.0
    for step in ctx.serving_steps(2):
        name = (SHARDED, MONO)[step % 2]
        batch = batches[name][(step // 2) % len(batches[name])]
        result, elapsed = ctx.timed("submit", name, f"scored_{name}",
                                    lambda: api.submit(fleet, name, batch.query, EPSILON, seed))
        ranges += batch.los.size
        busy += elapsed
        checked(name, batch, result)

    before = {name: api.submit(fleet, name, batches[name][1].query, EPSILON, seed).answers
              for name in (SHARDED, MONO)}

    def restart():
        fresh = api.new_fleet(store)
        register(fresh)
        return fresh, {
            name: api.submit(fresh, name, batches[name][1].query, EPSILON, seed).answers
            for name in (SHARDED, MONO)
        }

    restart_times = repeated_restart(ctx, restart, before, (SHARDED, MONO))

    # The SLO share comes from a scored batch; the error from a large
    # batch answered with scoring off, since scoring costs milliseconds
    # per range.
    eval_answers, truths, within = [], [], []
    for name in (SHARDED, MONO):
        batch = scored_eval[name]
        result, _ = ctx.timed("submit", name, None,
                              lambda: api.submit(fleet, name, batch.query, EPSILON, seed))
        checked(name, batch, result)
        eval_answers.append(result.answers)
        within.append(result.answers - result.ci_los <= SLO_HALFWIDTH)
    for name in (SHARDED, MONO):
        batch = evaluation[name]
        answers = api.submit_unscored(fleet, name, batch.query, EPSILON, seed)
        ctx.check(np.array_equal(answers, reference(name, batch)),
                  f"evaluation answers of {name} differ from the release's")
        eval_answers.append(answers)
        truths.append(range_truth(counts[name], batch.los, batch.his))

    ops = ctx.ops
    metrics = {
        "queries_per_s": ranges / busy,
        "sharded_p50_ms": percentile_ms(ops["scored_sharded"], 50),
        "sharded_p90_ms": percentile_ms(ops["scored_sharded"], 90),
        "mono_p50_ms": percentile_ms(ops["scored_mono"], 50),
    }
    extras = {
        "slo_ok_ratio": (float(np.mean(np.concatenate(within))), "ratio"),
        "mono_p90_ms": (percentile_ms(ops["scored_mono"], 90), "ms"),
        "scored_samples": (len(ops["scored_sharded"]), "count"),
    }
    return finish(ctx, fleet, metrics, extras, eval_answers, truths, inputs, store,
                  setup_times, restart_times)


RUNNERS = {"serve": serve, "refresh": refresh, "scored": scored}
