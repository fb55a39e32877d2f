"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unattributed_defaults(self):
        args = build_parser().parse_args(["unattributed"])
        assert args.epsilon == 0.1
        assert args.dataset == "nettrace"
        assert args.scale == "small"

    def test_universal_branching_option(self):
        args = build_parser().parse_args(["universal", "--branching", "4"])
        assert args.branching == 4

    def test_counts_file_takes_precedence_over_dataset_default(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        counts_file.write_text("1\n2\n3\n")
        assert main(["unattributed", "--counts-file", str(counts_file), "--epsilon", "100"]) == 0
        output = capsys.readouterr().out
        assert "(3 values)" in output


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "nettrace" in output
        assert "socialnetwork" in output

    def test_unattributed_from_counts_file(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        counts_file.write_text("\n".join(str(v) for v in [2, 0, 10, 2]))
        out_file = tmp_path / "release.csv"
        code = main(
            [
                "unattributed",
                "--counts-file",
                str(counts_file),
                "--epsilon",
                "5.0",
                "--seed",
                "1",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "bucket,private_sorted_count"
        assert len(lines) == 5

    def test_universal_from_dataset(self, capsys):
        code = main(
            ["universal", "--dataset", "searchlogs", "--epsilon", "1.0", "--seed", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "private total" in output

    def test_universal_rejects_dataset_without_variant(self, capsys):
        code = main(["universal", "--dataset", "socialnetwork"])
        assert code == 2
        assert "no universal-histogram variant" in capsys.readouterr().err

    def test_compare_unattributed(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        rng = np.random.default_rng(0)
        counts_file.write_text("\n".join(str(v) for v in rng.integers(0, 5, size=60)))
        out_file = tmp_path / "table.csv"
        code = main(
            [
                "compare-unattributed",
                "--counts-file",
                str(counts_file),
                "--epsilons",
                "0.5",
                "--trials",
                "3",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "S_bar" in output
        assert out_file.exists()

    def test_materialize_and_batch_query_round_trip(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        rng = np.random.default_rng(5)
        counts_file.write_text("\n".join(str(v) for v in rng.integers(0, 9, size=64)))
        release_file = tmp_path / "release.npz"
        code = main(
            [
                "materialize",
                "--counts-file",
                str(counts_file),
                "--epsilon",
                "2.0",
                "--seed",
                "3",
                "--release",
                str(release_file),
            ]
        )
        assert code == 0
        assert release_file.exists()
        output = capsys.readouterr().out
        assert "H_bar" in output
        assert "fingerprint" in output

        answers_file = tmp_path / "answers.csv"
        code = main(
            [
                "batch-query",
                "--release",
                str(release_file),
                "--random",
                "200",
                "--query-seed",
                "1",
                "--out",
                str(answers_file),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "no additional privacy cost" in output
        lines = answers_file.read_text().strip().splitlines()
        assert lines[0] == "lo,hi,estimate"
        assert len(lines) == 201

    def test_batch_query_from_queries_file(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        counts_file.write_text("\n".join(["4"] * 16))
        release_file = tmp_path / "release.npz"
        assert (
            main(
                [
                    "materialize",
                    "--counts-file",
                    str(counts_file),
                    "--estimator",
                    "identity",
                    "--epsilon",
                    "100",
                    "--release",
                    str(release_file),
                ]
            )
            == 0
        )
        queries_file = tmp_path / "ranges.txt"
        queries_file.write_text("0 15\n3 5\n")
        assert (
            main(["batch-query", "--release", str(release_file), "--queries-file", str(queries_file)])
            == 0
        )
        output = capsys.readouterr().out
        assert "answered 2 range queries" in output
        assert "L~" in output

    def test_batch_query_missing_release_errors_cleanly(self, tmp_path, capsys):
        code = main(["batch-query", "--release", str(tmp_path / "absent.npz")])
        assert code == 2
        assert "cannot load release" in capsys.readouterr().err

    def test_serve_store_cold_then_warm_round_trip(self, tmp_path, capsys):
        """materialize -> restart -> warm start: zero ε, identical answers."""
        store_dir = tmp_path / "releases"
        cold_csv = tmp_path / "cold.csv"
        warm_csv = tmp_path / "warm.csv"
        base = [
            "serve-store",
            "--store", str(store_dir),
            "--dataset", "nettrace",
            "--epsilon", "0.5",
            "--seed", "7",
            "--random", "300",
            "--query-seed", "1",
        ]
        assert main(base + ["--out", str(cold_csv)]) == 0
        cold_out = capsys.readouterr().out
        assert "cold start" in cold_out
        assert "materializations this process: 1" in cold_out

        assert main(base + ["--out", str(warm_csv)]) == 0
        warm_out = capsys.readouterr().out
        assert "warm start" in warm_out
        assert "materializations this process: 0" in warm_out
        assert "ε spent this process: 0" in warm_out
        assert cold_csv.read_text() == warm_csv.read_text()

    def test_serve_store_respects_total_epsilon(self, tmp_path, capsys):
        code = main(
            [
                "serve-store",
                "--store", str(tmp_path / "releases"),
                "--dataset", "nettrace",
                "--epsilon", "0.5",
                "--total-epsilon", "0.1",
                "--random", "10",
            ]
        )
        assert code == 3  # EXIT_BUDGET_EXHAUSTED: spent budget, not generic failure
        assert "cannot materialize" in capsys.readouterr().err

    def test_fleet_serves_multiple_datasets(self, tmp_path, capsys):
        store_dir = tmp_path / "releases"
        args = [
            "fleet",
            "--datasets", "nettrace", "searchlogs",
            "--epsilon", "0.5",
            "--random", "100",
            "--store", str(store_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "nettrace" in out and "searchlogs" in out
        assert "2 datasets" in out
        assert "2 materializations" in out
        # second run warm-starts the whole fleet from the shared store
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 materializations" in out
        assert "sum of per-dataset ε spent: 0" in out

    def test_fleet_rejects_dataset_without_universal_variant(self, capsys):
        code = main(["fleet", "--datasets", "socialnetwork", "--random", "10"])
        assert code == 2
        assert "no universal-histogram variant" in capsys.readouterr().err

    def test_compare_universal(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        rng = np.random.default_rng(1)
        counts_file.write_text("\n".join(str(v) for v in rng.integers(0, 5, size=64)))
        code = main(
            [
                "compare-universal",
                "--counts-file",
                str(counts_file),
                "--epsilons",
                "1.0",
                "--trials",
                "2",
                "--queries-per-size",
                "5",
            ]
        )
        assert code == 0
        assert "H_bar" in capsys.readouterr().out


class TestStreamingCommands:
    @staticmethod
    def _counts_file(tmp_path):
        counts_file = tmp_path / "counts.txt"
        rng = np.random.default_rng(4)
        counts_file.write_text("\n".join(str(v) for v in rng.integers(0, 9, size=32)))
        return str(counts_file)

    def test_ingest_appends_to_the_pending_log(self, tmp_path, capsys):
        counts = self._counts_file(tmp_path)
        stream_dir = tmp_path / "stream"
        args = [
            "ingest", "--stream-dir", str(stream_dir),
            "--counts-file", counts, "--rows", "50", "--seed", "1",
        ]
        assert main(args) == 0
        assert "ingested 50 rows" in capsys.readouterr().out
        assert main(args) == 0
        assert "ingested 50 rows" in capsys.readouterr().out
        assert (stream_dir / "current_counts.txt").exists()
        log = (stream_dir / "pending.log").read_text().strip().splitlines()
        assert len(log) == 100

    def test_ingest_rows_file(self, tmp_path, capsys):
        counts = self._counts_file(tmp_path)
        rows_file = tmp_path / "rows.txt"
        rows_file.write_text("0\n3\n3\n")
        code = main([
            "ingest", "--stream-dir", str(tmp_path / "sd"),
            "--counts-file", counts, "--rows-file", str(rows_file),
        ])
        assert code == 0
        assert "ingested 3 rows" in capsys.readouterr().out

    def test_ingest_rejects_out_of_domain_rows(self, tmp_path, capsys):
        counts = self._counts_file(tmp_path)
        rows_file = tmp_path / "rows.txt"
        rows_file.write_text("99999\n")
        code = main([
            "ingest", "--stream-dir", str(tmp_path / "sd"),
            "--counts-file", counts, "--rows-file", str(rows_file),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_advance_epoch_then_warm_serve(self, tmp_path, capsys):
        counts = self._counts_file(tmp_path)
        stream_dir, store = str(tmp_path / "stream"), str(tmp_path / "store")
        assert main([
            "ingest", "--stream-dir", stream_dir,
            "--counts-file", counts, "--rows", "40", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "advance-epoch", "--stream-dir", stream_dir, "--store", store,
            "--stream", "cli-test", "--counts-file", counts,
            "--epsilon0", "0.4", "--decay", "0.5", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch 0: folded 40 pending rows" in out
        assert "charged ε=0.4" in out
        # the pending log is consumed only after the epoch durably exists
        assert (tmp_path / "stream" / "pending.log").read_text() == ""

        assert main([
            "ingest", "--stream-dir", stream_dir,
            "--counts-file", counts, "--rows", "10", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        assert main([
            "advance-epoch", "--stream-dir", stream_dir, "--store", store,
            "--stream", "cli-test", "--counts-file", counts,
            "--epsilon0", "0.4", "--decay", "0.5", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch 1: folded 10 pending rows" in out
        assert "charged ε=0.2" in out

        assert main([
            "serve-stream", "--store", store, "--stream", "cli-test",
            "--counts-file", counts, "--epsilon0", "0.4", "--decay", "0.5",
            "--seed", "7", "--random", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "zero ε spent at startup" in out
        assert "from epoch 1" in out
        assert "ε spent this process: 0;" in out

    def test_advance_epoch_with_no_pending_rows_is_a_free_no_op(
        self, tmp_path, capsys
    ):
        counts = self._counts_file(tmp_path)
        stream_dir, store = tmp_path / "stream", tmp_path / "store"
        advance = [
            "advance-epoch", "--stream-dir", str(stream_dir), "--store", str(store),
            "--stream", "idle", "--counts-file", counts,
            "--epsilon0", "0.4", "--decay", "0.5", "--seed", "7",
        ]
        assert main([
            "ingest", "--stream-dir", str(stream_dir),
            "--counts-file", counts, "--rows", "40", "--seed", "2",
        ]) == 0
        assert main(advance) == 0
        assert "epoch 0: folded 40 pending rows" in capsys.readouterr().out
        (ledger,) = (store / "streams").glob("idle-*.json")
        owner_files = {
            path.name: path.read_bytes() for path in stream_dir.iterdir()
        }
        lineage_before = ledger.read_bytes()

        assert main(advance) == 0
        out = capsys.readouterr().out
        assert "no pending rows to fold: no epoch built, no ε charged" in out
        assert "epoch 1" not in out
        # the lineage (and with it the stream's lifetime Σε) is unchanged,
        # and no owner-side file was committed
        assert ledger.read_bytes() == lineage_before
        assert {
            path.name: path.read_bytes() for path in stream_dir.iterdir()
        } == owner_files

    def test_serve_stream_simulates_epochs(self, tmp_path, capsys):
        counts = self._counts_file(tmp_path)
        store = str(tmp_path / "store")
        code = main([
            "serve-stream", "--store", store, "--stream", "sim",
            "--counts-file", counts, "--epsilon0", "0.4", "--decay", "0.5",
            "--seed", "3", "--epochs", "2", "--rows-per-epoch", "100",
            "--random", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "from epoch 2" in out
        assert "Epoch lineage" in out
        # ε₀(1 + 0.5 + 0.25) = 0.7 spent across the three epochs
        assert "stream total across epochs: 0.7" in out

    def test_serve_stream_refuses_to_simulate_over_an_existing_stream(
        self, tmp_path, capsys
    ):
        counts = self._counts_file(tmp_path)
        store = str(tmp_path / "store")
        base = [
            "serve-stream", "--store", store, "--stream", "sim2",
            "--counts-file", counts, "--epsilon0", "0.4", "--decay", "0.5",
            "--seed", "3", "--random", "50",
        ]
        assert main([*base, "--epochs", "1", "--rows-per-epoch", "50"]) == 0
        capsys.readouterr()
        # re-running the simulation would rebase the stream on the base
        # counts and drop the released rows — it must refuse
        code = main([*base, "--epochs", "1", "--rows-per-epoch", "50"])
        assert code == 2
        assert "already has 2 released epochs" in capsys.readouterr().err
        # plain serving (no --epochs) still warm-starts fine
        assert main(base) == 0
        assert "warm start" in capsys.readouterr().out

    def test_advance_epoch_recovers_an_interrupted_commit(self, tmp_path, capsys):
        """Crash simulation: the epoch exists in the store but the
        owner-side commit was interrupted at each of its two points; the
        next advance-epoch must neither double-fold nor drop rows."""
        counts = self._counts_file(tmp_path)
        stream_dir, store = str(tmp_path / "stream"), str(tmp_path / "store")
        advance = [
            "advance-epoch", "--stream-dir", stream_dir, "--store", store,
            "--stream", "crashy", "--counts-file", counts,
            "--epsilon0", "0.4", "--decay", "0.5", "--seed", "7",
        ]
        assert main([
            "ingest", "--stream-dir", stream_dir,
            "--counts-file", counts, "--rows", "60", "--seed", "1",
        ]) == 0
        assert main(advance) == 0
        capsys.readouterr()
        counts_path = tmp_path / "stream" / "current_counts.txt"
        pending_path = tmp_path / "stream" / "pending.log"
        committed = counts_path.read_text()

        # crash point 1: counts written (epoch 0) but the consumed pending
        # prefix was never dropped -> restore the pre-drop log, including
        # rows a concurrent ingest appended during the build
        consumed = "\n".join(["1"] * 60) + "\n"
        import hashlib as _hashlib

        digest = _hashlib.sha256(consumed.encode()).hexdigest()
        epoch0_body = committed.split("\n", 1)[1]
        counts_path.write_text(
            f"# epoch 0 pending-sha256 {digest} bytes {len(consumed)}\n{epoch0_body}"
        )
        pending_path.write_text(consumed + "3\n3\n3\n")
        assert main(advance) == 0
        out = capsys.readouterr().out
        assert "recovered interrupted commit: dropped the pending prefix" in out
        # the concurrently appended tail survived and was folded normally
        assert "epoch 1: folded 3 pending rows" in out

        # crash point 2: lineage holds epoch 1 (which folded those 3 rows)
        # but the counts file still reflects epoch 0 and the folded rows
        # sit in the pending log
        counts_path.write_text(
            f"# epoch 0 pending-sha256 {digest} bytes {len(consumed)}\n{epoch0_body}"
        )
        pending_path.write_text("3\n3\n3\n")
        assert main(advance) == 0
        out = capsys.readouterr().out
        assert "recovered interrupted commit: folded 3 released rows" in out
        assert "no pending rows to fold: no epoch built, no ε charged" in out

        # with fresh arrivals after a recovery the epoch does advance
        assert main([
            "ingest", "--stream-dir", stream_dir,
            "--counts-file", counts, "--rows", "10", "--seed", "4",
        ]) == 0
        capsys.readouterr()
        assert main(advance) == 0
        assert "folded 10 pending rows" in capsys.readouterr().out


class TestShardedCommands:
    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["materialize-sharded", "--store", "s"]
        )
        assert args.shards is None and args.shard_size is None
        assert args.domain_bits is None
        assert args.estimator == "constrained"

    def test_shards_and_shard_size_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-sharded", "--store", "s", "--shards", "4", "--shard-size", "8"]
            )

    def test_materialize_then_serve_warm_round_trip(self, tmp_path, capsys):
        store = tmp_path / "store"
        base = [
            "--domain-bits", "10", "--epsilon", "0.5", "--seed", "7",
            "--store", str(store), "--shards", "4",
        ]
        assert main(["materialize-sharded", *base]) == 0
        cold = capsys.readouterr().out
        assert "cold start: built 4 shard releases" in cold
        assert "ε spent this process: 0.5" in cold

        out_file = tmp_path / "answers.csv"
        assert main(
            [
                "serve-sharded", *base, "--random", "500",
                "--query-seed", "3", "--out", str(out_file),
            ]
        ) == 0
        warm = capsys.readouterr().out
        assert "warm start" in warm
        assert "ε spent this process: 0" in warm
        assert "through the shard router" in warm
        assert out_file.read_text().startswith("lo,hi,estimate")

    def test_serve_sharded_answers_match_monolithic_release(self, tmp_path, capsys):
        # The same synthetic counts served sharded and monolithic must
        # answer the same queries identically (bit-identical router).
        import numpy as np

        from repro.serving import HistogramEngine, QueryBatch
        from repro.sharding import ShardedHistogramEngine
        from repro.utils.random import as_generator

        counts = as_generator(7).poisson(3.0, size=2**10).astype(np.float64)
        sharded = ShardedHistogramEngine(counts, 0.5, num_shards=4)
        release = sharded.materialize("constrained", epsilon=0.5, seed=7)

        store = tmp_path / "store"
        assert main(
            [
                "serve-sharded", "--domain-bits", "10", "--epsilon", "0.5",
                "--seed", "7", "--store", str(store), "--shards", "4",
                "--random", "200", "--query-seed", "3",
                "--out", str(tmp_path / "a.csv"),
            ]
        ) == 0
        capsys.readouterr()
        batch = QueryBatch.random(counts.size, 200, rng=3)
        expected = release.range_sums(batch.los, batch.his)
        rows = (tmp_path / "a.csv").read_text().strip().splitlines()[1:]
        answers = np.array([float(r.split(",")[2]) for r in rows])
        assert np.array_equal(answers, expected)

    def test_domain_bits_out_of_range_errors_cleanly(self, tmp_path, capsys):
        code = main(
            ["materialize-sharded", "--domain-bits", "40",
             "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "domain-bits" in capsys.readouterr().err

    def test_domain_bits_conflicts_with_explicit_sources(self, tmp_path, capsys):
        counts_file = tmp_path / "counts.txt"
        counts_file.write_text("1\n2\n3\n4\n")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["materialize-sharded", "--store", "s",
                 "--counts-file", str(counts_file), "--domain-bits", "12"]
            )
        # argparse counts an option as "seen" only when its value differs
        # from the default, so a non-default dataset exercises the guard.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-sharded", "--store", "s",
                 "--dataset", "searchlogs", "--domain-bits", "12"]
            )


class TestObservabilityCommands:
    def test_stats_reports_a_bit_equal_ledger(self, capsys):
        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "ε-ledger total: 1.125 across 3 tenants" in output
        assert "bit-equal to the fleet accounting" in output
        # one row per tenant of the mixed workload
        for name in ("static", "sharded", "stream"):
            assert name in output
        # the span timing table saw the cold builds and epoch advances
        assert "serve.build_release" in output
        assert "stream.advance_epoch" in output

    def test_stats_with_a_store_persists_releases(self, tmp_path, capsys):
        store = tmp_path / "releases"
        assert main(["stats", "--store", str(store)]) == 0
        assert store.is_dir()
        assert "ε-ledger total: 1.125" in capsys.readouterr().out

    def test_export_metrics_prometheus_stdout_parses(self, capsys):
        from repro.obs import parse_prometheus_text

        assert main(["export-metrics"]) == 0
        output = capsys.readouterr().out
        samples = parse_prometheus_text(output)
        assert samples[("repro_fleet_spent_epsilon", ())] == 1.125
        assert samples[("repro_fleet_datasets", ())] == 3
        # nothing but exposition format on stdout (pipeable to a scraper)
        assert output.lstrip().startswith("#")

    def test_export_metrics_json_document(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "metrics.json"
        assert main(["export-metrics", "--format", "json", "--out", str(out_file)]) == 0
        assert f"wrote json metrics to {out_file}" in capsys.readouterr().err
        document = json.loads(out_file.read_text())
        assert set(document) == {"epsilon_ledger", "metrics", "spans"}
        ledger = document["epsilon_ledger"]
        assert ledger["total_spent_epsilon"] == 1.125
        assert sorted(ledger["datasets"]) == ["sharded", "static", "stream"]
        assert document["spans"], "expected at least one recorded span"
        counters = document["metrics"]["counters"]
        assert "repro_serve_queries_total" in counters

    def test_export_metrics_out_file_prometheus(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text

        out_file = tmp_path / "metrics.prom"
        assert main(["export-metrics", "--out", str(out_file)]) == 0
        capsys.readouterr()
        samples = parse_prometheus_text(out_file.read_text())
        assert samples[("repro_fleet_spent_epsilon", ())] == 1.125

    def test_obs_commands_leave_defaults_untouched(self):
        from repro import obs

        obs.reset()
        baseline_registry = obs.registry()
        assert main(["stats"]) == 0
        assert not obs.enabled()
        assert obs.registry() is baseline_registry
        assert baseline_registry.families() == []

    def test_export_metrics_unwritable_out_errors_cleanly(self, capsys):
        assert main(["export-metrics", "--out", "/nonexistent-dir/x.prom"]) == 2
        assert "cannot write metrics" in capsys.readouterr().err


class TestFailureExitCodes:
    """The typed failure classes map to distinct exit codes (docs/robustness.md)."""

    @staticmethod
    def _counts_file(tmp_path):
        counts_file = tmp_path / "counts.txt"
        rng = np.random.default_rng(4)
        counts_file.write_text("\n".join(str(v) for v in rng.integers(0, 9, size=32)))
        return str(counts_file)

    def test_store_corruption_exits_4(self, tmp_path, capsys):
        store_dir = tmp_path / "releases"
        args = [
            "serve-store", "--store", str(store_dir), "--dataset", "nettrace",
            "--epsilon", "0.5", "--seed", "7", "--random", "10",
        ]
        assert main(args) == 0
        capsys.readouterr()
        (store_dir / "manifest.json").write_text("{ not json")
        assert main(args) == 4  # EXIT_STORE_CORRUPTION: operator attention
        assert "manifest" in capsys.readouterr().err

    def test_lineage_conflict_exits_5(self, tmp_path, capsys):
        import json as json_module

        counts = self._counts_file(tmp_path)
        stream_dir, store = str(tmp_path / "stream"), str(tmp_path / "store")
        advance = [
            "advance-epoch", "--stream-dir", stream_dir, "--store", store,
            "--stream", "forked", "--counts-file", counts,
            "--epsilon0", "0.4", "--decay", "0.5", "--seed", "7",
        ]
        assert main(advance) == 0
        assert main([
            "ingest", "--stream-dir", stream_dir,
            "--counts-file", counts, "--rows", "10", "--seed", "3",
        ]) == 0
        assert main(advance) == 0
        capsys.readouterr()

        # fork the ledger: renumber epoch 1 as epoch 5 (a gap)
        (ledger,) = (tmp_path / "store" / "streams").glob("forked-*.json")
        document = json_module.loads(ledger.read_text())
        document["epochs"][1]["epoch"] = 5
        ledger.write_text(json_module.dumps(document))

        assert main(advance) == 5  # EXIT_LINEAGE_CONFLICT
        assert "not contiguous" in capsys.readouterr().err
