"""The reprolint CLI: exit codes, JSON output, and the baseline workflow."""

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import PLACEHOLDER_REASON
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

# Both fixtures export their symbols so A501 reachability stays quiet
# and each test isolates the signal it actually cares about.
CLEAN = '__all__ = ["double"]\n\nVALUE = 1\n\n\ndef double(x):\n    return VALUE * x\n'
DIRTY = '__all__ = ["roll"]\n\nimport random\n\n\ndef roll():\n    return random.random()\n'


def project(tmp_path, source=DIRTY):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(source, encoding="utf-8")
    return src


def run(tmp_path, src, *extra, baseline="bl.json"):
    argv = [str(src), "--root", str(tmp_path), "--baseline",
            str(tmp_path / baseline), *extra]
    return main(argv)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src) == 0
        assert "— clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src) == 1
        assert "D101" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src, "--rules", "XYZ9") == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        (tmp_path / "bl.json").write_text("{not json", encoding="utf-8")
        assert run(tmp_path, src) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "D101", "D102", "D103", "D104", "D105", "D106",
            "C201", "C202", "E401", "A501",
        ):
            assert rule_id in out

    def test_rules_subset_filters(self, tmp_path):
        src = project(tmp_path)  # D101 violation only
        assert run(tmp_path, src, "--rules", "D104") == 0


class TestJsonOutput:
    def test_json_format_parses_and_reports(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["open"] >= 1
        assert payload["findings"][0]["rule"] == "D101"
        assert payload["findings"][0]["path"] == "src/mod.py"


class TestBaselineWorkflow:
    """The full add → justify → expire → prune lifecycle."""

    def test_lifecycle(self, tmp_path, capsys):
        src = project(tmp_path)
        baseline = tmp_path / "bl.json"

        # 1. Dirty tree, no baseline: fails.
        assert run(tmp_path, src) == 1

        # 2. Record the baseline: exits 0 and stamps the placeholder.
        assert run(tmp_path, src, "--update-baseline") == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert [e["reason"] for e in data["entries"]] == [
            PLACEHOLDER_REASON
        ] * len(data["entries"])

        # 3. Placeholder reasons are not a free pass: still fails.
        capsys.readouterr()
        assert run(tmp_path, src) == 1
        assert "needs a real" in capsys.readouterr().out

        # 4. A human writes real reasons: now clean.
        for entry in data["entries"]:
            entry["reason"] = "legacy shim, tracked in issue 7"
        baseline.write_text(json.dumps(data), encoding="utf-8")
        assert run(tmp_path, src) == 0

        # 5. The code gets fixed: entries expire and fail the run again.
        (src / "mod.py").write_text(CLEAN, encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, src) == 1
        assert "expired" in capsys.readouterr().out

        # 6. Updating prunes the expired entries; clean from then on.
        assert run(tmp_path, src, "--update-baseline") == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert data["entries"] == []
        assert run(tmp_path, src) == 0

    def test_update_preserves_existing_reasons(self, tmp_path):
        src = project(tmp_path)
        baseline = tmp_path / "bl.json"
        assert run(tmp_path, src, "--update-baseline") == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        for entry in data["entries"]:
            entry["reason"] = "kept on purpose"
        baseline.write_text(json.dumps(data), encoding="utf-8")

        assert run(tmp_path, src, "--update-baseline") == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert {e["reason"] for e in data["entries"]} == {"kept on purpose"}

    def test_no_baseline_flag_ignores_file(self, tmp_path):
        src = project(tmp_path)
        assert run(tmp_path, src, "--update-baseline") == 0
        assert run(tmp_path, src, "--no-baseline") == 1


class TestBaselineExpiry:
    """Entries can carry an `expires` date enforced via --today."""

    def _baselined(self, tmp_path, expires):
        src = project(tmp_path)
        assert run(tmp_path, src, "--update-baseline") == 0
        baseline = tmp_path / "bl.json"
        data = json.loads(baseline.read_text(encoding="utf-8"))
        for entry in data["entries"]:
            entry["reason"] = "deadline-tracked debt"
            entry["expires"] = expires
        baseline.write_text(json.dumps(data), encoding="utf-8")
        return src, baseline

    def test_overdue_entry_fails_the_run(self, tmp_path, capsys):
        src, __ = self._baselined(tmp_path, "2026-01-01")
        capsys.readouterr()
        assert run(tmp_path, src, "--today", "2026-06-01") == 1
        out = capsys.readouterr().out
        assert "past its expiry" in out
        assert "2026-01-01" in out

    def test_future_deadline_still_clean(self, tmp_path):
        src, __ = self._baselined(tmp_path, "2027-01-01")
        assert run(tmp_path, src, "--today", "2026-06-01") == 0

    def test_without_today_expires_is_inert(self, tmp_path):
        src, __ = self._baselined(tmp_path, "2026-01-01")
        assert run(tmp_path, src) == 0

    def test_bad_today_format_exits_two(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src, "--today", "June 1st") == 2
        assert "--today" in capsys.readouterr().err

    def test_update_baseline_carries_expires(self, tmp_path):
        src, baseline = self._baselined(tmp_path, "2027-01-01")
        assert run(tmp_path, src, "--update-baseline") == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert data["entries"]
        assert {e["expires"] for e in data["entries"]} == {"2027-01-01"}

    def test_overdue_count_in_json_summary(self, tmp_path, capsys):
        src, __ = self._baselined(tmp_path, "2026-01-01")
        capsys.readouterr()
        code = run(
            tmp_path, src, "--today", "2026-06-01", "--format", "json"
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["overdue_baseline"] >= 1
        assert payload["overdue_baseline"]


class TestRepoIsClean:
    """Acceptance: the committed tree passes its own linter."""

    def test_src_tree_clean_under_committed_baseline(self, capsys):
        code = main(
            [
                str(REPO_ROOT / "src"),
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(REPO_ROOT / "reprolint-baseline.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 open" in out

    def test_committed_baseline_reasons_are_real(self):
        data = json.loads(
            (REPO_ROOT / "reprolint-baseline.json").read_text(encoding="utf-8")
        )
        for entry in data["entries"]:
            reason = entry["reason"].strip()
            assert reason and reason != PLACEHOLDER_REASON, entry


class TestExplain:
    def test_known_rule_prints_doc(self, capsys):
        assert main(["--explain", "D106"]) == 0
        out = capsys.readouterr().out
        assert "D106" in out
        assert "Rationale:" in out
        assert "Example (fires the rule):" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--explain", "Z999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err and "D101" in err

    def test_catalog_is_complete(self, capsys):
        """Every registered rule explains itself: doc, rationale, example."""
        from repro.analysis.engine import rule_registry

        for rule_id, cls in sorted(rule_registry().items()):
            assert cls.title, f"{rule_id} has no title"
            assert cls.__doc__, f"{rule_id} has no docstring"
            assert cls.rationale, f"{rule_id} has no rationale"
            assert cls.example, f"{rule_id} has no example"
            assert main(["--explain", rule_id]) == 0
            out = capsys.readouterr().out
            assert "Rationale:" in out
            assert "Example (fires the rule):" in out


class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src, "--format", "sarif") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (sarif_run,) = doc["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "reprolint"
        results = [
            r for r in sarif_run["results"] if r["ruleId"] == "D101"
        ]
        assert results
        (location,) = results[0]["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        uri = location["physicalLocation"]["artifactLocation"]["uri"]
        assert uri == "src/mod.py"
        rule_ids = [r["id"] for r in sarif_run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "D101" in rule_ids

    def test_clean_tree_emits_empty_results(self, tmp_path, capsys):
        src = project(tmp_path, CLEAN)
        assert run(tmp_path, src, "--format", "sarif") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_baselined_findings_are_not_results(self, tmp_path, capsys):
        src = project(tmp_path)
        assert run(tmp_path, src, "--update-baseline") == 0
        capsys.readouterr()
        baseline = json.loads(
            (tmp_path / "bl.json").read_text(encoding="utf-8")
        )
        for entry in baseline["entries"]:
            entry["reason"] = "seeded for the SARIF reporter test"
        (tmp_path / "bl.json").write_text(
            json.dumps(baseline), encoding="utf-8"
        )
        assert run(tmp_path, src, "--format", "sarif") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestIncrementalCli:
    def test_cold_and_warm_cache_output_byte_identical(
        self, tmp_path, capsys
    ):
        src = project(tmp_path)
        cache = tmp_path / "cache.json"
        argv = ["--format", "json", "--cache", str(cache)]
        assert run(tmp_path, src, *argv) == 1
        cold = capsys.readouterr().out
        assert cache.exists()
        assert run(tmp_path, src, *argv) == 1
        assert capsys.readouterr().out == cold
        assert run(tmp_path, src, "--format", "json") == 1
        assert capsys.readouterr().out == cold  # and identical to no-cache


def _git(cwd, *argv):
    import subprocess

    subprocess.run(
        ["git", "-C", str(cwd), *argv],
        check=True,
        capture_output=True,
        env={
            "PATH": "/usr/bin:/bin",
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.com",
            "HOME": str(cwd),
        },
    )


class TestChangedOnly:
    def _repo(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "stable.py").write_text(DIRTY, encoding="utf-8")
        (src / "touched.py").write_text(CLEAN, encoding="utf-8")
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-qm", "seed")
        return src

    def test_scans_only_files_the_diff_names(self, tmp_path, capsys):
        src = self._repo(tmp_path)
        (src / "touched.py").write_text(
            CLEAN + "\n\n_extra = double(2)\n", encoding="utf-8"
        )
        assert run(tmp_path, src, "--changed-only") == 0
        out = capsys.readouterr().out
        # stable.py's D101 violation is out of scope: only 1 file scanned.
        assert "1 files" in out
        assert "D101" not in out

    def test_untracked_files_are_in_scope(self, tmp_path, capsys):
        src = self._repo(tmp_path)
        (src / "fresh.py").write_text(DIRTY, encoding="utf-8")
        assert run(tmp_path, src, "--changed-only") == 1
        out = capsys.readouterr().out
        assert "src/fresh.py" in out and "src/stable.py" not in out

    def test_matches_scripted_git_diff(self, tmp_path):
        from repro.analysis.cli import _changed_relpaths

        src = self._repo(tmp_path)
        (src / "touched.py").write_text("TOUCHED = 1\n", encoding="utf-8")
        (src / "fresh.py").write_text("FRESH = 1\n", encoding="utf-8")
        changed = _changed_relpaths(tmp_path, "HEAD")
        assert changed == {"src/touched.py", "src/fresh.py"}

    def test_unchanged_baseline_entries_survive_partial_scan(
        self, tmp_path, capsys
    ):
        src = self._repo(tmp_path)
        # Baseline stable.py's findings, then change only touched.py: the
        # partial run must neither expire nor re-match stable.py's entry,
        # and --update-baseline must carry it over verbatim.
        assert run(tmp_path, src, "--update-baseline") == 0
        baseline = tmp_path / "bl.json"
        data = json.loads(baseline.read_text(encoding="utf-8"))
        for entry in data["entries"]:
            entry["reason"] = "kept"
        baseline.write_text(json.dumps(data), encoding="utf-8")

        (src / "touched.py").write_text(
            CLEAN + "\n\n_extra = double(2)\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert run(tmp_path, src, "--changed-only") == 0
        assert "expired" not in capsys.readouterr().out

        assert run(tmp_path, src, "--changed-only", "--update-baseline") == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert data["entries"], "out-of-scope entries must be carried over"
        assert {e["reason"] for e in data["entries"]} == {"kept"}

    def test_no_git_repo_exits_two(self, tmp_path, capsys, monkeypatch):
        src = project(tmp_path, CLEAN)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nope"))
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        assert run(tmp_path, src, "--changed-only") == 2
        assert "--changed-only" in capsys.readouterr().err
