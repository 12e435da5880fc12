"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import main
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3


@pytest.fixture()
def figure3_files(tmp_path):
    paths = []
    for index, content in enumerate((FIGURE3_P1, FIGURE3_P2, FIGURE3_P3)):
        path = tmp_path / f"page{index}.html"
        path.write_text(content, encoding="utf-8")
        paths.append(str(path))
    artists = tmp_path / "artists.txt"
    artists.write_text("Metallica\nColdplay\nMadonna\nMuse\n", encoding="utf-8")
    theaters = tmp_path / "theaters.txt"
    theaters.write_text(
        "Madison Square Garden\nBowery Ballroom\nThe Town Hall\n"
        "B.B King Blues and Grill\n",
        encoding="utf-8",
    )
    return paths, str(artists), str(theaters)


SOD = (
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)


class TestExtract:
    def test_extracts_objects_as_json(self, figure3_files, capsys):
        pages, artists, theaters = figure3_files
        code = main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                *pages,
            ]
        )
        assert code == 0
        out = capsys.readouterr()
        lines = [line for line in out.out.splitlines() if line.strip()]
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["artist"] == "Metallica"
        assert "extracted 4 objects" in out.err

    def test_bad_dict_spec(self, figure3_files, capsys):
        pages, artists, __ = figure3_files
        code = main(["extract", "--sod", SOD, "--dict", "nodelimiter", *pages])
        assert code == 2

    def test_missing_file_reports_error(self, capsys):
        code = main(["extract", "--sod", SOD, "/nonexistent/page.html"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_sod_reports_error(self, figure3_files, capsys):
        pages, *_ = figure3_files
        code = main(["extract", "--sod", "broken((", *pages])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_discarded_source(self, tmp_path, capsys):
        page = tmp_path / "junk.html"
        page.write_text("<html><body><p>nothing here</p></body></html>")
        code = main(
            ["extract", "--sod", "t(date<kind=predefined>)", str(page)]
        )
        assert code == 1
        assert "discarded" in capsys.readouterr().err


class TestResilienceFlags:
    def test_flags_accepted(self, figure3_files, capsys):
        pages, artists, theaters = figure3_files
        code = main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--failure-policy", "isolate",
                "--max-retries", "2",
                *pages,
            ]
        )
        assert code == 0
        assert "extracted 4 objects" in capsys.readouterr().err

    def test_unknown_policy_rejected_by_parser(self, figure3_files, capsys):
        pages, __, __ = figure3_files
        with pytest.raises(SystemExit):
            main(
                ["extract", "--sod", SOD,
                 "--failure-policy", "shrug", *pages]
            )

    def test_negative_retries_rejected(self, figure3_files, capsys):
        pages, __, __ = figure3_files
        code = main(
            ["extract", "--sod", SOD, "--max-retries", "-1", *pages]
        )
        assert code == 2
        assert "max_retries" in capsys.readouterr().err

    def test_backend_flag_removed(self, figure3_files, capsys):
        # extract runs one source, so a fan-out backend chose nothing.
        pages, __, __ = figure3_files
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", "--sod", SOD, "--backend", "process", *pages])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestWrapperPersistenceFlags:
    def test_save_then_load_wrapper_round_trip(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        wrapper_path = str(tmp_path / "wrapper.json")
        code = main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--save-wrapper", wrapper_path,
                *pages,
            ]
        )
        assert code == 0
        first = capsys.readouterr()
        saved = json.loads((tmp_path / "wrapper.json").read_text())
        assert saved["version"] == 1

        # Extract-often path: no --sod, no dictionaries, no re-wrapping.
        code = main(["extract", "--load-wrapper", wrapper_path, *pages])
        assert code == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "wrapping 0 ms" in second.err

    def test_sod_required_without_load_wrapper(self, figure3_files, capsys):
        pages, *_ = figure3_files
        code = main(["extract", *pages])
        assert code == 2
        assert "--sod is required" in capsys.readouterr().err

    def test_load_wrapper_missing_file(self, figure3_files, capsys):
        pages, *_ = figure3_files
        code = main(["extract", "--load-wrapper", "/nonexistent.json", *pages])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_load_wrapper_corrupt_json(self, figure3_files, capsys, tmp_path):
        pages, *_ = figure3_files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["extract", "--load-wrapper", str(bad), *pages])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_load_wrapper_unsupported_version(
        self, figure3_files, capsys, tmp_path
    ):
        pages, *_ = figure3_files
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"version": 99}), encoding="utf-8")
        code = main(["extract", "--load-wrapper", str(stale), *pages])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTraceFlag:
    def test_trace_writes_stage_events(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--trace", str(trace_path),
                *pages,
            ]
        )
        assert code == 0
        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "pipeline_start"
        assert kinds[-1] == "pipeline_end"
        stages = [e["stage"] for e in events if e["event"] == "stage_end"]
        assert stages == [
            "preprocess", "segmentation", "annotation", "wrapping", "extraction",
        ]
        assert all("elapsed_s" in e for e in events if e["event"] == "stage_end")

    def test_trace_written_even_when_discarded(self, tmp_path, capsys):
        page = tmp_path / "junk.html"
        page.write_text("<html><body><p>nothing here</p></body></html>")
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "extract",
                "--sod", "t(date<kind=predefined>)",
                "--trace", str(trace_path),
                str(page),
            ]
        )
        assert code == 1
        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        summary = next(e for e in events if e["event"] == "pipeline_end")
        assert summary["discarded"] is True


class TestDescribe:
    def test_describe_prints_structure(self, capsys):
        code = main(["describe", SOD])
        assert code == 0
        out = capsys.readouterr().out
        assert "canonical:" in out
        assert "artist" in out
        assert "(optional)" in out

    def test_describe_invalid(self, capsys):
        code = main(["describe", "((("])
        assert code == 1


class TestRegistryFlag:
    def test_cold_then_warm_registry_runs(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        registry_dir = str(tmp_path / "reg")
        argv = [
            "extract",
            "--sod", SOD,
            "--dict", f"artist={artists}",
            "--dict", f"theater={theaters}",
            "--registry", registry_dir,
            *pages,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "1 misses" in cold.err and "1 stores" in cold.err

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "1 hits" in warm.err
        assert "wrapping 0 ms" in warm.err

    def test_registry_ls_gc_verify(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        registry_dir = str(tmp_path / "reg")
        main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--registry", registry_dir,
                *pages,
            ]
        )
        capsys.readouterr()

        assert main(["registry", "ls", "--root", registry_dir]) == 0
        out = capsys.readouterr()
        assert "1 entries" in out.err
        assert "kind=wrapper" in out.out
        assert "source=cli-source" in out.out

        assert main(["registry", "verify", "--root", registry_dir]) == 0
        assert "consistent" in capsys.readouterr().err

        assert main(["registry", "gc", "--root", registry_dir]) == 0
        assert "0 orphan" in capsys.readouterr().err

        # Seed two orphans: --dry-run lists them sorted, deletes nothing.
        wrappers_dir = tmp_path / "reg" / "wrappers"
        for letter in ("b", "a"):
            (wrappers_dir / (letter * 64 + ".json")).write_text("{}")
        assert (
            main(["registry", "gc", "--root", registry_dir, "--dry-run"])
            == 0
        )
        dry = capsys.readouterr()
        listed = [
            line for line in dry.out.splitlines() if "would remove" in line
        ]
        assert listed == sorted(listed) and len(listed) == 2
        assert "would remove 2 orphan file(s)" in dry.err
        assert len(sorted(wrappers_dir.glob("*.json"))) == 3  # nothing deleted

        assert main(["registry", "gc", "--root", registry_dir]) == 0
        real = capsys.readouterr()
        assert "removed 2 orphan file(s)" in real.err
        assert len(sorted(wrappers_dir.glob("*.json"))) == 1

    def test_registry_verify_flags_problems(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        registry_dir = tmp_path / "reg"
        main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--registry", str(registry_dir),
                *pages,
            ]
        )
        capsys.readouterr()
        [entry_path] = sorted((registry_dir / "wrappers").glob("*.json"))
        (registry_dir / "wrappers" / ("0" * 64 + ".json")).write_text("{}")
        assert main(["registry", "verify", "--root", str(registry_dir)]) == 1
        assert "orphan" in capsys.readouterr().out
        # A readable entry whose wrapper payload is not is flagged too.
        assert main(["registry", "gc", "--root", str(registry_dir)]) == 0
        entry = json.loads(entry_path.read_text(encoding="utf-8"))
        del entry["wrapper"]["template"]
        entry_path.write_text(json.dumps(entry), encoding="utf-8")
        capsys.readouterr()
        assert main(["registry", "verify", "--root", str(registry_dir)]) == 1
        assert "unreadable wrapper" in capsys.readouterr().out


class TestWrapperFingerprintCheck:
    def test_saved_wrapper_records_fingerprint(
        self, figure3_files, capsys, tmp_path
    ):
        pages, artists, theaters = figure3_files
        wrapper_path = tmp_path / "wrapper.json"
        main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--save-wrapper", str(wrapper_path),
                *pages,
            ]
        )
        capsys.readouterr()
        saved = json.loads(wrapper_path.read_text())
        assert saved["version"] == 1
        assert len(saved["fingerprint"]) == 64

    def test_mismatch_with_sod_reinduces(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        wrapper_path = tmp_path / "wrapper.json"
        base = [
            "--sod", SOD,
            "--dict", f"artist={artists}",
            "--dict", f"theater={theaters}",
        ]
        main(["extract", *base, "--save-wrapper", str(wrapper_path), *pages])
        first = capsys.readouterr()
        saved = json.loads(wrapper_path.read_text())
        saved["fingerprint"] = "0" * 64
        wrapper_path.write_text(json.dumps(saved))

        code = main(
            ["extract", *base, "--load-wrapper", str(wrapper_path), *pages]
        )
        assert code == 0
        second = capsys.readouterr()
        assert "does not match" in second.err
        assert "re-inducing" in second.err
        assert second.out == first.out

    def test_mismatch_without_sod_warns_and_proceeds(
        self, figure3_files, capsys, tmp_path
    ):
        pages, artists, theaters = figure3_files
        wrapper_path = tmp_path / "wrapper.json"
        main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--save-wrapper", str(wrapper_path),
                *pages,
            ]
        )
        first = capsys.readouterr()
        saved = json.loads(wrapper_path.read_text())
        saved["fingerprint"] = "0" * 64
        wrapper_path.write_text(json.dumps(saved))

        code = main(["extract", "--load-wrapper", str(wrapper_path), *pages])
        assert code == 0
        second = capsys.readouterr()
        assert "does not match" in second.err
        assert second.out == first.out

    def test_deprecation_notes(self, figure3_files, capsys, tmp_path):
        pages, artists, theaters = figure3_files
        wrapper_path = str(tmp_path / "wrapper.json")
        main(
            [
                "extract",
                "--sod", SOD,
                "--dict", f"artist={artists}",
                "--dict", f"theater={theaters}",
                "--save-wrapper", wrapper_path,
                *pages,
            ]
        )
        assert "--save-wrapper is deprecated" in capsys.readouterr().err
        main(["extract", "--load-wrapper", wrapper_path, *pages])
        assert "--load-wrapper is deprecated" in capsys.readouterr().err
