"""Unit tests for statan's core pieces: pragmas, paths, baselines, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.statan.baseline import load_baseline, write_baseline
from repro.statan.core import (
    Finding,
    PRAGMA,
    SourceModule,
    StatanError,
    module_name_for_path,
)
from repro.statan.layers import rank_of
from repro.utils.io_atomic import BLOCKING_WAIT_NAMES


class TestModuleNames:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("src/repro/serving/engine.py", "repro.serving.engine"),
            ("src/repro/obs/__init__.py", "repro.obs"),
            ("src/repro/cli.py", "repro.cli"),
            (
                "tests/statan/fixtures/eps001/bad/repro/serving/noisy_path.py",
                "repro.serving.noisy_path",
            ),
            ("scratch/standalone.py", "standalone"),
        ],
    )
    def test_anchors_at_the_last_repro_component(self, path, expected):
        assert module_name_for_path(Path(path)) == expected


class TestPragmas:
    def test_grammar_accepts_multiple_codes(self):
        match = PRAGMA.search("x = 1  # statan: ignore[EPS001, LOCK002]")
        assert match is not None

    def test_module_records_codes_per_line(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "a = 1  # statan: ignore[EPS001]\n"
            "b = 2  # statan: ignore[LOCK001, LOCK002]\n"
            "c = 3\n"
        )
        module = SourceModule(path, path.read_text())
        assert module.is_ignored(1, "EPS001")
        assert not module.is_ignored(1, "LOCK001")
        assert module.is_ignored(2, "LOCK001")
        assert module.is_ignored(2, "LOCK002")
        assert not module.is_ignored(3, "EPS001")


class TestBaselineFile:
    def finding(self, message="m") -> Finding:
        return Finding(
            path="src/repro/x.py",
            line=3,
            col=0,
            code="EPS001",
            message=message,
            pass_name="eps-flow",
        )

    def test_round_trip_is_line_number_free(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.finding()])
        accepted = load_baseline(path)
        # A moved (re-linenumbered) finding still matches its fingerprint.
        moved = Finding(
            path="src/repro/x.py",
            line=99,
            col=7,
            code="EPS001",
            message="m",
            pass_name="eps-flow",
        )
        assert moved.fingerprint() in accepted
        entry = json.loads(path.read_text())["findings"][0]
        assert "line" not in entry  # the fingerprint is line-number free

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"statan_baseline_version": 7, "findings": []}')
        with pytest.raises(StatanError):
            load_baseline(path)

    def test_rejects_non_object_document(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(StatanError):
            load_baseline(path)


class TestCliLint:
    def test_lint_subcommand_runs_the_driver(self, tmp_path, capsys):
        target = tmp_path / "repro" / "inference"
        target.mkdir(parents=True)
        (target / "clock.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        exit_code = cli_main(
            ["lint", str(tmp_path), "--no-baseline", "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert {f["code"] for f in report["findings"]} == {"DET001"}

    def test_lint_list_passes(self, capsys):
        exit_code = cli_main(["lint", "--list-passes"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "eps-flow" in out


class TestWorkerPoolCoverage:
    """The tooling that polices ``repro.sharding.pool``."""

    def test_pool_ranks_with_the_rest_of_sharding(self):
        # The thread pool imports nothing from serving, so it needs no
        # carve-out: longest-prefix match gives it the sharding rank.
        assert rank_of("repro.sharding.pool") == 11
        assert rank_of("repro.sharding.engine") == 11
        assert rank_of("repro.sharding") == 11
        assert rank_of("repro.serving.engine") == 9

    def test_futures_barriers_are_catalogued_waits(self):
        # LOCK002's wait catalog must cover the pool's join shapes:
        # blocking on a worker pool under an annotated lock stalls every
        # reader behind the slowest outstanding build.
        assert "wait" in BLOCKING_WAIT_NAMES
        assert "futures.wait" in BLOCKING_WAIT_NAMES
        assert "as_completed" in BLOCKING_WAIT_NAMES
