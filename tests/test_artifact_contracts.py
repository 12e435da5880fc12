"""Runtime contracts of the artifacts ObjectRunner keeps between runs.

ObjectRunner wraps once and extracts often, so wrappers, registry
entries, tombstones, the registry index, BENCH documents and trace
events outlive the process that wrote them: their formats are a
contract between runs.  Three parts pin it on real artifacts:

- **shape** — each family's keys (top level, plus every payload level
  of a wrapper and each template-node kind) are compared with
  :data:`SHAPES`, keyed by the family's version constant.  A shape
  change must bump the version and add a row;
- **round trip and drop-a-key** — every reader of external input
  rebuilds what its writer wrote, and a payload missing any one key is
  either accepted or rejected with the family's typed error
  (:class:`~repro.errors.WrapperSchemaError`,
  :class:`~repro.errors.RegistryError`, an ``ok: false`` serve
  response) — never a bare ``KeyError`` or ``TypeError``;
- **history** — the BENCH readers accept every committed
  ``BENCH_*.json``, whatever schema version wrote it.
"""

from __future__ import annotations

import builtins
import copy
import io
import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core import ObjectRunner
from repro.core.pipeline import PipelineEvent
from repro.core.sharding import ShardSpec
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.errors import RegistryError, WrapperSchemaError
from repro.metrics.bench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    BenchSession,
    bench_digest,
    compare_documents,
    load_bench,
    merge_documents,
)
from repro.recognizers import (
    GazetteerRecognizer,
    RecognizerRegistry,
    predefined_recognizer,
)
from repro.registry import WrapperRegistry
from repro.registry.files import load_wrapper_file, save_wrapper_file
from repro.registry.store import REGISTRY_SCHEMA_VERSION, RegistryEntry
from repro.service import ExtractionService, serve_loop
from repro.sod.dsl import parse_sod
from repro.wrapper.serialize import (
    FORMAT_VERSION,
    wrapper_from_dict,
    wrapper_to_dict,
)
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3

REPO_ROOT = Path(__file__).resolve().parents[1]
HISTORY = sorted(REPO_ROOT.glob("BENCH_*.json"))

FIGURE3_RAW = [FIGURE3_P1, FIGURE3_P2, FIGURE3_P3]
FIGURE3_SOD = (
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)
FIGURE3_DICTS = {
    "artist": ["Metallica", "Coldplay", "Madonna", "Muse"],
    "theater": [
        "Madison Square Garden",
        "Bowery Ballroom",
        "The Town Hall",
        "B.B King Blues and Grill",
    ],
}

NODE_KINDS = ("field", "static", "iterator", "element")

#: The current version of each family; ``None`` marks an unversioned one.
VERSIONS = {
    "bench": BENCH_SCHEMA_VERSION,
    "registry": REGISTRY_SCHEMA_VERSION,
    "wrapper": FORMAT_VERSION,
    "trace_event": None,
}

#: Keys per payload level, keyed by ``(family, version)``.  Readers tell
#: old documents from new ones by the version alone, so a row never
#: changes: a new shape gets a new version and a new row.
SHAPES: dict[tuple[str, int | None], dict[str, list[str]]] = {
    ("bench", 2): {
        "document": [
            "cache", "config", "generated_at", "platform", "process",
            "python", "registry", "schema_version", "sharding", "systems",
        ],
    },
    ("bench", 3): {
        "document": [
            "cache", "config", "generated_at", "platform", "process",
            "python", "registry", "schema_version", "sharding", "systems",
        ],
        "cache": ["entries", "hits", "misses"],
        "sharding": [
            "backend", "merged_from", "per_shard", "shard", "wall_seconds",
            "workers",
        ],
    },
    ("registry", 2): {
        "entry": [
            "discard", "fingerprint", "kind", "schema_version",
            "signature", "sod", "source", "wrapper",
        ],
        "tombstone": [
            "discard", "fingerprint", "kind", "schema_version",
            "signature", "sod", "source", "wrapper",
        ],
        "tombstone discard": ["reason", "stage"],
        "index": ["entries", "schema_version"],
        "index row": ["fingerprint", "kind", "sod", "source"],
    },
    ("wrapper", 1): {
        "wrapper": [
            "annotation_types_seen", "conflicts", "match", "record", "sod",
            "source", "support", "template", "version",
        ],
        "wrapper file": [
            "annotation_types_seen", "conflicts", "fingerprint", "match",
            "record", "sod", "source", "support", "template", "version",
        ],
        "template": ["conflicts", "roots", "sample_records"],
        "match": [
            "entity_to_slots", "matched", "missing", "set_fallback_slots",
            "set_inner_slots", "set_to_iterator",
        ],
        "record": [
            "class", "is_list_source", "path", "single_element", "tag",
        ],
        "field node": [
            "annotation_counts", "examples", "kind", "occurrences",
            "optional", "slot_id", "strip_prefix", "strip_suffix",
        ],
        "static node": ["kind", "text"],
        "iterator node": [
            "kind", "max_repeats", "min_repeats", "slot_id", "unit",
        ],
        "element node": [
            "annotation_counts", "attr_class", "children", "kind",
            "optional", "tag",
        ],
    },
    ("trace_event", None): {
        "event": [
            "attempt", "counters", "discard_reason", "discard_stage",
            "discarded", "elapsed_s", "error", "event", "pass",
            "retry_delay_s", "source", "stage",
        ],
    },
}


# -- real artifacts -----------------------------------------------------------


@pytest.fixture(scope="module")
def induced(tmp_path_factory):
    """One registry holding real wrappers and a real discard tombstone.

    The Figure 3 wrapper has field, static and element nodes; a books
    wrapper adds iterator nodes (its authors set); an unstructured books
    site is discarded at annotation and stored as a tombstone.
    """
    root = tmp_path_factory.mktemp("contracts-registry")
    registry = WrapperRegistry(root)
    recognizers = RecognizerRegistry()
    for type_name, values in FIGURE3_DICTS.items():
        recognizers.register(GazetteerRecognizer(type_name, values))
    for type_name in ("date", "address"):
        recognizers.register(
            predefined_recognizer(type_name, type_name=type_name)
        )
    figure3 = ObjectRunner(
        parse_sod(FIGURE3_SOD),
        registry=recognizers,
        wrapper_registry=registry,
    ).run_source("figure3", FIGURE3_RAW)
    wrappers = {"figure3": figure3.wrapper}
    domain = domain_spec("books")
    knowledge = build_knowledge(domain, coverage=0.25)
    for archetype in ("clean", "unstructured"):
        spec = SiteSpec(
            name=f"contracts-books-{archetype}",
            domain="books",
            archetype=archetype,
            total_objects=30,
            seed=("contracts", "books"),
        )
        result = ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            wrapper_registry=registry,
        ).run_source(spec.name, generate_source(spec, domain).pages)
        if archetype == "clean":
            wrappers["books"] = result.wrapper
        else:
            assert result.discarded
    assert all(wrapper is not None for wrapper in wrappers.values())
    return root, wrappers


@pytest.fixture(scope="module")
def bench_document():
    """A real (one-shard, tiny-scale) BENCH capture."""
    config = BenchConfig(
        scale=0.01, systems=("objectrunner",), shard=ShardSpec.parse("0/16")
    )
    return BenchSession(config).capture()


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def entry_files(root: Path) -> dict[str, dict]:
    """Entry documents on disk, keyed by their ``kind``."""
    entries = {}
    for path in sorted((root / "wrappers").glob("*.json")):
        data = read_json(path)
        entries.setdefault(data["kind"], data)
    return entries


def node_levels(wrapper_data: dict) -> list[tuple[str, tuple]]:
    """``(label, path)`` of every template node, in pre-order."""
    levels = []

    def walk(node: dict, path: tuple) -> None:
        levels.append((f"{node['kind']} node", path))
        for index, child in enumerate(node.get("children", ())):
            walk(child, (*path, "children", index))
        if "unit" in node:
            walk(node["unit"], (*path, "unit"))

    for index, root in enumerate(wrapper_data["template"]["roots"]):
        walk(root, ("template", "roots", index))
    return levels


def wrapper_levels(wrapper_data: dict) -> list[tuple[str, tuple]]:
    """Every keyed payload level of a serialized wrapper."""
    return [
        ("wrapper", ()),
        ("template", ("template",)),
        ("match", ("match",)),
        ("record", ("record",)),
        *node_levels(wrapper_data),
    ]


def at(payload, path: tuple):
    for step in path:
        payload = payload[step]
    return payload


def collect_shape(levels) -> dict[str, list[str]]:
    """Union of the keys seen per level label, sorted."""
    shape: dict[str, set[str]] = {}
    for label, data in levels:
        shape.setdefault(label, set()).update(data)
    return {label: sorted(keys) for label, keys in sorted(shape.items())}


def assert_shape(family: str, shape: dict[str, list[str]]) -> None:
    version = VERSIONS[family]
    row = SHAPES.get((family, version))
    assert row is not None, (
        f"no {family} shape row for version {version!r}: add a row to "
        f"SHAPES for the new version"
    )
    if shape == row:
        return
    changes = []
    for label in sorted(set(shape) | set(row)):
        now, pinned = set(shape.get(label, ())), set(row.get(label, ()))
        if now != pinned:
            changes.append(
                f"{label}: added {sorted(now - pinned)}, "
                f"removed {sorted(pinned - now)}"
            )
    advice = (
        "bump the version and add a row"
        if version is not None
        else "update the row and every consumer of this family"
    )
    pytest.fail(
        f"{family} shape changed at version {version!r} "
        f"({'; '.join(changes)}): {advice}"
    )


def drop_each_key(payload, levels):
    """Yield ``(description, payload copy)`` with one key deleted."""
    for label, path in levels:
        for key in sorted(at(payload, path)):
            mutated = copy.deepcopy(payload)
            del at(mutated, path)[key]
            yield f"{label} {'/'.join(map(str, path))}[{key!r}]", mutated


def accepted_or_typed(read, payload, error: type, what: str) -> bool:
    """Run a reader; True if it accepted, False if it raised ``error``."""
    try:
        read(payload)
    except error:
        return False
    except Exception as exc:  # the contract under test: nothing untyped
        pytest.fail(
            f"dropping {what} raised {type(exc).__name__}: {exc} — "
            f"the reader must raise {error.__name__}"
        )
    return True


def is_builtin_error(message: str) -> bool:
    """Whether an ``ok: false`` error text names a builtin exception."""
    name = message.partition(":")[0]
    found = getattr(builtins, name, None)
    return isinstance(found, type) and issubclass(found, BaseException)


# -- shape, keyed by version -------------------------------------------------


class TestShapes:
    def test_bench_document(self, bench_document):
        assert_shape("bench", collect_shape([
            ("document", bench_document),
            ("cache", bench_document["cache"]),
            ("sharding", bench_document["sharding"]),
        ]))

    def test_registry_entry_tombstone_and_index(self, induced):
        root, __ = induced
        entries = entry_files(root)
        index = read_json(root / "index.json")
        levels = [
            ("entry", entries["wrapper"]),
            ("tombstone", entries["discard"]),
            ("tombstone discard", entries["discard"]["discard"]),
            ("index", index),
            *(("index row", row) for row in index["entries"].values()),
        ]
        assert_shape("registry", collect_shape(levels))

    def test_wrapper_levels_and_every_node_kind(self, induced, tmp_path):
        __, wrappers = induced
        levels = []
        for name, wrapper in sorted(wrappers.items()):
            data = wrapper_to_dict(wrapper)
            levels += [
                (label, at(data, path)) for label, path in wrapper_levels(data)
            ]
            path = tmp_path / f"{name}.json"
            save_wrapper_file(path, wrapper, fingerprint="f" * 64)
            levels.append(("wrapper file", read_json(path)))
        shape = collect_shape(levels)
        assert {f"{kind} node" for kind in NODE_KINDS} <= set(shape)
        assert_shape("wrapper", shape)

    def test_trace_event(self):
        events = [
            PipelineEvent(
                kind="stage_end", source="s", stage="wrapping", pass_index=1,
                elapsed=0.5, counters={"records": 3}, discarded=True,
                discard_stage="wrapping", discard_reason="no match",
                error="boom",
            ),
            PipelineEvent(
                kind="stage_retry", source="s", stage="annotation",
                attempt=1, retry_delay=0.25, error="flaky",
            ),
        ]
        shape = collect_shape([("event", event.to_json()) for event in events])
        assert_shape("trace_event", shape)


# -- round trip and drop-a-key -----------------------------------------------


class TestWrapperContract:
    def test_round_trip_is_a_fixpoint(self, induced):
        __, wrappers = induced
        for wrapper in wrappers.values():
            data = json.loads(json.dumps(wrapper_to_dict(wrapper)))
            assert wrapper_to_dict(wrapper_from_dict(data)) == data

    def test_file_round_trip(self, induced, tmp_path):
        __, wrappers = induced
        for name, wrapper in wrappers.items():
            path = tmp_path / f"{name}.json"
            save_wrapper_file(path, wrapper, fingerprint="f" * 64)
            loaded, fingerprint = load_wrapper_file(path)
            assert fingerprint == "f" * 64
            assert wrapper_to_dict(loaded) == wrapper_to_dict(wrapper)

    def test_every_dropped_key_is_accepted_or_a_schema_error(self, induced):
        __, wrappers = induced
        kinds = set()
        for wrapper in wrappers.values():
            data = wrapper_to_dict(wrapper)
            levels = wrapper_levels(data)
            kinds.update(label for label, __ in levels)
            for what, mutated in drop_each_key(data, levels):
                accepted_or_typed(
                    wrapper_from_dict, mutated, WrapperSchemaError, what
                )
        assert {f"{kind} node" for kind in NODE_KINDS} <= kinds

    def test_every_dropped_file_key_is_accepted_or_a_schema_error(
        self, induced, tmp_path
    ):
        __, wrappers = induced
        path = tmp_path / "wrapper.json"
        save_wrapper_file(path, wrappers["figure3"], fingerprint="f" * 64)
        document = read_json(path)

        def load(payload):
            path.write_text(json.dumps(payload), encoding="utf-8")
            return load_wrapper_file(path)

        accepted = {
            what
            for what, mutated in drop_each_key(document, [("file", ())])
            if accepted_or_typed(load, mutated, WrapperSchemaError, what)
        }
        assert "file ['fingerprint']" in accepted


class TestRegistryContract:
    def test_entry_round_trip(self, induced):
        root, __ = induced
        entries = WrapperRegistry(root).entries()
        assert {entry.kind for entry in entries} == {"wrapper", "discard"}
        for entry in entries:
            data = json.loads(json.dumps(entry.to_dict()))
            assert RegistryEntry.from_dict(data) == entry
            assert data == read_json(
                root / "wrappers" / f"{entry.signature}.json"
            )

    def test_every_dropped_entry_key_is_accepted_or_a_registry_error(
        self, induced, tmp_path
    ):
        source_root, __ = induced
        root = tmp_path / "registry"
        shutil.copytree(source_root, root)
        registry = WrapperRegistry(root)
        for document in entry_files(root).values():
            signature = document["signature"]
            path = registry.entry_path(signature)

            def get(payload, path=path, signature=signature):
                path.write_text(json.dumps(payload), encoding="utf-8")
                return registry.get(signature)

            for what, mutated in drop_each_key(document, [("entry", ())]):
                accepted_or_typed(
                    RegistryEntry.from_dict, mutated, RegistryError, what
                )
                accepted_or_typed(get, mutated, RegistryError, what)

    def test_index_round_trip(self, induced, tmp_path):
        root, __ = induced
        reopened = WrapperRegistry(root)
        copied = WrapperRegistry.merged(tmp_path / "copy", [reopened])
        assert copied.index_rows() == reopened.index_rows()
        assert (tmp_path / "copy" / "index.json").read_bytes() == (
            root / "index.json"
        ).read_bytes()

    def test_every_dropped_index_key_is_a_registry_error(
        self, induced, tmp_path
    ):
        source_root, __ = induced
        root = tmp_path / "registry"
        shutil.copytree(source_root, root)
        index = read_json(root / "index.json")
        levels = [("index", ())] + [
            ("index row", ("entries", signature))
            for signature in sorted(index["entries"])
        ]

        def load(payload):
            (root / "index.json").write_text(
                json.dumps(payload), encoding="utf-8"
            )
            return WrapperRegistry(root)

        for what, mutated in drop_each_key(index, levels):
            assert not accepted_or_typed(load, mutated, RegistryError, what), (
                f"dropping {what} was accepted"
            )

    @pytest.mark.parametrize(
        "row",
        [
            5,
            "xy",
            {},
            {"sod": "t(a)", "fingerprint": "f", "source": "s"},
            {"kind": "x", "sod": "t(a)", "fingerprint": "f", "source": "s"},
            {"kind": "wrapper", "sod": "t(a)", "fingerprint": "f", "source": 7},
        ],
        ids=["int", "string", "empty", "no-kind", "bad-kind", "int-source"],
    )
    def test_malformed_index_row_is_a_registry_error(
        self, tmp_path, capsys, row
    ):
        signature = "ab" * 32
        (tmp_path / "index.json").write_text(
            json.dumps(
                {
                    "schema_version": REGISTRY_SCHEMA_VERSION,
                    "entries": {signature: row},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(RegistryError, match=signature):
            WrapperRegistry(tmp_path)
        assert main(["registry", "ls", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and signature in err
        assert "Traceback" not in err


class TestServeRequestContract:
    REQUEST = {
        "id": 1,
        "sod": FIGURE3_SOD,
        "pages": FIGURE3_RAW,
        "source": "contracts",
        "dicts": FIGURE3_DICTS,
    }

    @staticmethod
    def without_timings(response: dict) -> dict:
        return {k: v for k, v in response.items() if k != "timings"}

    def test_round_trip_through_the_json_lines_loop(self, tmp_path):
        direct = ExtractionService(WrapperRegistry(tmp_path / "a")).handle(
            dict(self.REQUEST)
        )
        stdout = io.StringIO()
        serve_loop(
            WrapperRegistry(tmp_path / "b"),
            io.StringIO(json.dumps(self.REQUEST) + "\n"),
            stdout,
        )
        looped = json.loads(stdout.getvalue())
        assert direct["ok"] and direct["objects"]
        assert self.without_timings(looped) == self.without_timings(direct)

    def test_every_dropped_key_is_served_or_a_typed_error(self, tmp_path):
        served = set()
        drops = drop_each_key(self.REQUEST, [("request", ())])
        for index, (what, mutated) in enumerate(drops):
            registry = WrapperRegistry(tmp_path / str(index))
            response = ExtractionService(registry).handle(mutated)
            if response["ok"]:
                served.add(what)
            else:
                assert not is_builtin_error(response["error"]), (
                    f"dropping {what}: {response['error']}"
                )
        # Without dictionaries the source is discarded at annotation: a
        # typed ``ok: false`` response, like a missing sod or pages.
        assert served == {"request ['id']", "request ['source']"}

    @pytest.mark.parametrize(
        "dicts", [{"artist": "Coldplay"}, {"artist": 5}], ids=["str", "int"]
    )
    def test_non_list_dictionary_values_are_rejected(self, tmp_path, dicts):
        service = ExtractionService(WrapperRegistry(tmp_path))
        response = service.handle({**self.REQUEST, "dicts": dicts})
        assert response["ok"] is False
        assert response["error"] == (
            "ReproError: 'dicts' must map type names to value lists"
        )
        assert service.stats()["runners"] == 0


# -- history ------------------------------------------------------------------


def test_history_is_committed():
    assert len(HISTORY) >= 2


@pytest.mark.parametrize(
    "old,new",
    [(old, new) for old in HISTORY for new in HISTORY if old != new],
    ids=lambda path: path.stem,
)
def test_compare_reads_every_ordered_pair_of_committed_documents(old, new):
    comparison = compare_documents(load_bench(old), load_bench(new))
    assert comparison.render()


@pytest.mark.parametrize("path", HISTORY, ids=lambda path: path.stem)
def test_digest_and_merge_read_every_committed_document(path):
    document = load_bench(path)
    merged = merge_documents([document])
    assert bench_digest(merged) == bench_digest(document)


def test_fresh_capture_compares_against_history(bench_document):
    for path in HISTORY:
        old = load_bench(path)
        assert compare_documents(old, bench_document).render()
        assert compare_documents(bench_document, old).render()
