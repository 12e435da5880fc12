"""reprolint engine: suppressions, walking, determinism, reporters."""

import json
import textwrap

import pytest

from repro.analysis import (
    analyze_file,
    analyze_paths,
    build_rules,
    render_json,
    render_text,
    rule_registry,
    suppressed_rules,
)
from repro.analysis.engine import PARSE_RULE_ID, collect_files
from repro.analysis.reporters import JSON_SCHEMA_VERSION


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestRegistry:
    def test_all_bundled_rules_registered(self):
        assert {
            "D101", "D102", "D103", "D104", "D105", "D106",
            "C201", "C202", "E401", "A501",
        } <= set(rule_registry())

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            build_rules(["NOPE999"])

    def test_build_subset(self):
        rules = build_rules(["D101"])
        assert [rule.rule_id for rule in rules] == ["D101"]


class TestSuppressions:
    def test_parse_single(self):
        assert suppressed_rules("x = 1  # repro: ignore[D101]") == {"D101"}

    def test_parse_multiple(self):
        assert suppressed_rules("# repro: ignore[D101, E401]") == {
            "D101",
            "E401",
        }

    def test_no_comment(self):
        assert suppressed_rules("x = 1  # just a comment") == frozenset()

    def test_inline_suppression_marks_finding(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            "import random  # repro: ignore[D101]\n",
        )
        findings = analyze_file(path, tmp_path, build_rules(["D101"]))
        assert [f.status for f in findings] == ["suppressed"]

    def test_wrong_id_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            "import random  # repro: ignore[D102]\n",
        )
        findings = analyze_file(path, tmp_path, build_rules(["D101"]))
        assert [f.status for f in findings] == ["open"]


class TestWalking:
    def test_collect_files_sorted_and_deduped(self, tmp_path):
        write(tmp_path, "pkg/b.py", "x = 1\n")
        write(tmp_path, "pkg/a.py", "x = 1\n")
        write(tmp_path, "pkg/__pycache__/junk.py", "x = 1\n")
        files = collect_files([tmp_path, tmp_path / "pkg" / "a.py"])
        names = [f.name for f in files]
        assert names == ["a.py", "b.py"]

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        path = write(tmp_path, "bad.py", "def broken(:\n")
        findings = analyze_file(path, tmp_path, build_rules(["D101"]))
        assert [f.rule for f in findings] == [PARSE_RULE_ID]

    def test_parallel_matches_serial(self, tmp_path):
        for index in range(6):
            write(
                tmp_path,
                f"m{index}.py",
                "import random\nimport time\n"
                "def f():\n    return time.time()\n",
            )
        serial = analyze_paths([tmp_path], root=tmp_path, jobs=1)
        parallel = analyze_paths([tmp_path], root=tmp_path, jobs=4)
        as_tuples = lambda report: [  # noqa: E731 - test-local shorthand
            (f.rule, f.path, f.line, f.col, f.message)
            for f in report.findings
        ]
        assert as_tuples(serial) == as_tuples(parallel)
        assert serial.files_scanned == parallel.files_scanned == 6


class TestReporters:
    @pytest.fixture()
    def report(self, tmp_path):
        write(tmp_path, "mod.py", "import random\n")
        write(tmp_path, "ok.py", "x = 1\n")
        return analyze_paths([tmp_path], root=tmp_path, rules=build_rules(["D101"]))

    def test_text_report_mentions_location_and_rule(self, report):
        text = render_text(report)
        assert "mod.py:1:0: D101" in text
        assert "reprolint: 2 files, 1 open" in text

    def test_json_report_schema(self, report):
        payload = json.loads(render_json(report))
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        assert set(payload) == {
            "schema_version",
            "root",
            "summary",
            "findings",
            "expired_baseline",
            "unjustified_baseline",
            "overdue_baseline",
        }
        summary = payload["summary"]
        assert summary["files_scanned"] == 2
        assert summary["open"] == 1
        assert summary["open_by_rule"] == {"D101": 1}
        assert summary["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "snippet",
            "status",
        }
        assert finding["path"] == "mod.py"
        assert finding["status"] == "open"

    def test_clean_report(self, tmp_path):
        write(tmp_path, "ok.py", "x = 1\n")
        report = analyze_paths(
            [tmp_path], root=tmp_path, rules=build_rules(["D101"])
        )
        assert report.clean
        assert "— clean" in render_text(report)


class TestSuppressionSpans:
    """Suppressions may sit on any physical line of the flagged statement."""

    def test_comment_on_later_line_of_multiline_statement(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            def f(a, b):
                return tuple(
                    set(a) & set(b)  # repro: ignore[D103]
                )
            """,
        )
        findings = analyze_file(path, tmp_path, build_rules(["D103"]))
        assert findings and all(f.status == "suppressed" for f in findings)

    def test_comment_on_decorator_line_covers_the_def(self, tmp_path):
        from repro.analysis import analyze_paths

        path = write(
            tmp_path,
            "mod.py",
            """
            import functools

            @functools.lru_cache  # repro: ignore[A501]
            def orphan():
                return 1
            """,
        )
        report = analyze_paths(
            [path], root=tmp_path, rules=build_rules(["A501"]), jobs=1
        )
        findings = [f for f in report.findings if f.rule == "A501"]
        assert findings and all(f.status == "suppressed" for f in findings)

    def test_unrelated_line_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            # repro: ignore[D103]
            def f(a, b):
                return tuple(set(a) & set(b))
            """,
        )
        findings = analyze_file(path, tmp_path, build_rules(["D103"]))
        assert [f.status for f in findings] == ["open"]


class TestIncrementalCache:
    def _report_json(self, tmp_path, cache):
        from repro.analysis import analyze_paths, build_rules, render_json

        report = analyze_paths(
            [tmp_path / "src"],
            root=tmp_path,
            rules=build_rules(None),
            jobs=1,
            cache=cache,
        )
        return render_json(report)

    def test_warm_run_byte_identical_and_hits_cache(self, tmp_path):
        from repro.analysis import ResultCache

        write(tmp_path, "src/mod.py", "import random\n")
        write(tmp_path, "src/clean.py", "def f(x):\n    return x\n\nf(1)\n")
        cache_path = tmp_path / "cache.json"

        cold_cache = ResultCache.load(cache_path)
        cold = self._report_json(tmp_path, cold_cache)
        cold_cache.save()
        assert cold_cache.misses > 0 and cold_cache.hits == 0

        warm_cache = ResultCache.load(cache_path)
        warm = self._report_json(tmp_path, warm_cache)
        assert warm == cold
        assert warm_cache.hits > 0 and warm_cache.misses == 0

    def test_edited_file_invalidates_its_entry_only(self, tmp_path):
        from repro.analysis import ResultCache

        write(tmp_path, "src/mod.py", "import random\n")
        write(tmp_path, "src/clean.py", "def f(x):\n    return x\n\nf(1)\n")
        cache_path = tmp_path / "cache.json"
        cache = ResultCache.load(cache_path)
        self._report_json(tmp_path, cache)
        cache.save()

        write(tmp_path, "src/mod.py", "import random\nimport glob\n")
        cache = ResultCache.load(cache_path)
        edited = self._report_json(tmp_path, cache)
        assert cache.hits == 1 and cache.misses == 1
        assert '"D104"' not in edited  # glob imported, never called

    def test_cache_survives_corrupt_file(self, tmp_path):
        from repro.analysis import ResultCache

        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{broken", encoding="utf-8")
        cache = ResultCache.load(cache_path)
        assert cache.entries == {}
