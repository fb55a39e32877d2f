"""End-to-end tests for the statan driver over the checked-in fixtures.

Every test runs the real ``repro.statan.driver.run`` entry point — the
same code path CI and ``python -m repro.statan`` use — so the fixtures
double as a living specification of what each pass detects.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.statan.driver import run
from repro.statan.report import REPORT_VERSION

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: fixture directory -> the finding code its ``bad`` variant must raise
FIXTURE_CODES = {
    "eps001": "EPS001",
    "lock001": "LOCK001",
    "lock002": "LOCK002",
    "obs001": "OBS001",
    "arch001": "ARCH001",
    "det001": "DET001",
}


def run_json(argv):
    """Run the driver with ``--format json`` and parse its report."""
    import io
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


class TestFixtures:
    @pytest.mark.parametrize("name,code", sorted(FIXTURE_CODES.items()))
    def test_bad_variant_is_detected(self, name, code):
        exit_code, report = run_json(
            [str(FIXTURES / name / "bad"), "--no-baseline"]
        )
        assert exit_code == 1
        codes = {f["code"] for f in report["findings"]}
        assert code in codes

    @pytest.mark.parametrize("name", sorted(FIXTURE_CODES))
    def test_ok_variant_is_clean(self, name):
        exit_code, report = run_json(
            [str(FIXTURES / name / "ok"), "--no-baseline"]
        )
        assert exit_code == 0
        assert report["findings"] == []

    def test_lock001_follows_guards_into_a_subclass_in_another_module(self):
        _, report = run_json(
            [str(FIXTURES / "lock001" / "bad"), "--no-baseline"]
        )
        inherited = [
            f for f in report["findings"] if f["path"].endswith("shard_ticker.py")
        ]
        assert [(f["code"], f["line"]) for f in inherited] == [("LOCK001", 10)]
        assert "self._ticks" in inherited[0]["message"]

    def test_bad_variants_raise_nothing_else(self):
        # Each bad fixture must fail for its own reason: a finding with a
        # foreign code would mean the fixture (or a pass) drifted.
        for name, code in FIXTURE_CODES.items():
            _, report = run_json(
                [str(FIXTURES / name / "bad"), "--no-baseline"]
            )
            codes = {f["code"] for f in report["findings"]}
            assert codes == {code}, f"{name}: unexpected codes {codes}"


class TestReportSchema:
    def test_json_envelope_keys(self):
        exit_code, report = run_json(
            [str(FIXTURES / "det001" / "bad"), "--no-baseline"]
        )
        assert report["statan_report_version"] == REPORT_VERSION
        assert set(report) == {
            "statan_report_version",
            "passes",
            "files_analyzed",
            "findings",
            "pragma_suppressed",
            "baseline_suppressed",
            "exit_code",
        }
        assert report["exit_code"] == exit_code == 1
        assert report["files_analyzed"] == 1
        for finding in report["findings"]:
            assert set(finding) == {
                "path",
                "line",
                "col",
                "code",
                "message",
                "pass",
            }

    def test_human_format_mentions_code_and_location(self, capsys):
        exit_code = run([str(FIXTURES / "lock001" / "bad"), "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "LOCK001" in out
        assert "counter_box.py" in out
        assert "statan:" in out  # the summary line


class TestPragmas:
    def test_pragma_suppresses_and_is_counted(self, tmp_path):
        source = FIXTURES / "det001" / "bad" / "repro" / "inference"
        target = tmp_path / "repro" / "inference"
        target.mkdir(parents=True)
        text = (source / "wall_clock.py").read_text()
        text = text.replace(
            "started = time.time()",
            "started = time.time()  # statan: ignore[DET001]",
        ).replace(
            "noise = np.random.rand(len(values))",
            "noise = np.random.rand(len(values))  # statan: ignore[DET001]",
        )
        (target / "wall_clock.py").write_text(text)
        exit_code, report = run_json([str(tmp_path), "--no-baseline"])
        assert exit_code == 0
        assert report["findings"] == []
        assert report["pragma_suppressed"] == 2

    def test_pragma_only_suppresses_its_own_code(self, tmp_path):
        target = tmp_path / "repro" / "inference"
        target.mkdir(parents=True)
        (target / "clock.py").write_text(
            "import time\n\n"
            "def now():\n"
            "    return time.time()  # statan: ignore[EPS001]\n"
        )
        exit_code, report = run_json([str(tmp_path), "--no-baseline"])
        assert exit_code == 1
        assert {f["code"] for f in report["findings"]} == {"DET001"}


class TestBaseline:
    def test_write_then_rerun_round_trip(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "eps001" / "bad", tree)
        baseline = tmp_path / "baseline.json"

        wrote = run([str(tree), "--baseline", str(baseline), "--write-baseline"])
        assert wrote == 0
        document = json.loads(baseline.read_text())
        assert document["statan_baseline_version"] == 1
        assert len(document["findings"]) > 0

        exit_code, report = run_json([str(tree), "--baseline", str(baseline)])
        assert exit_code == 0
        assert report["findings"] == []
        assert report["baseline_suppressed"] == len(document["findings"])

        # --no-baseline must surface the accepted findings again.
        exit_code, report = run_json([str(tree), "--no-baseline"])
        assert exit_code == 1
        assert len(report["findings"]) == len(document["findings"])

    def test_baseline_does_not_hide_new_findings(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "eps001" / "bad", tree)
        baseline = tmp_path / "baseline.json"
        run([str(tree), "--baseline", str(baseline), "--write-baseline"])

        extra = tree / "repro" / "inference"
        extra.mkdir(parents=True)
        (extra / "clock.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        exit_code, report = run_json([str(tree), "--baseline", str(baseline)])
        assert exit_code == 1
        assert {f["code"] for f in report["findings"]} == {"DET001"}
        assert report["baseline_suppressed"] > 0

    def test_malformed_baseline_is_a_usage_error(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "det001" / "ok", tree)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"statan_baseline_version": 99}')
        exit_code = run([str(tree), "--baseline", str(baseline)])
        assert exit_code == 2
        assert "baseline" in capsys.readouterr().err


class TestDriver:
    def test_select_filters_passes(self):
        # Running only the determinism pass over the eps001 fixture finds
        # nothing: EPS001 is not selected.
        exit_code, report = run_json(
            [str(FIXTURES / "eps001" / "bad"), "--no-baseline",
             "--select", "DET001"]
        )
        assert exit_code == 0
        assert report["findings"] == []

    def test_select_unknown_code_is_a_usage_error(self, capsys):
        exit_code = run(
            [str(FIXTURES / "eps001" / "bad"), "--select", "NOPE999"]
        )
        assert exit_code == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_syntax_error_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        exit_code = run([str(tmp_path), "--no-baseline"])
        assert exit_code == 2
        assert "broken.py" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        exit_code = run([str(tmp_path / "does-not-exist")])
        assert exit_code == 2
        capsys.readouterr()

    def test_list_passes_names_every_registered_pass(self, capsys):
        exit_code = run(["--list-passes"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in (
            "eps-flow",
            "lock-discipline",
            "obs-gate",
            "layer-dag",
            "determinism",
        ):
            assert name in out


class TestShippedTree:
    def test_src_repro_is_statan_clean(self):
        # The acceptance bar of the linter itself: the shipped tree has
        # zero findings with no baseline debt.
        exit_code, report = run_json(
            [str(REPO_ROOT / "src" / "repro"), "--no-baseline"]
        )
        assert exit_code == 0
        assert report["findings"] == []
        assert report["baseline_suppressed"] == 0

    def test_checked_in_baseline_is_empty(self):
        document = json.loads(
            (REPO_ROOT / "statan-baseline.json").read_text()
        )
        assert document == {
            "findings": [],
            "statan_baseline_version": 1,
        }
