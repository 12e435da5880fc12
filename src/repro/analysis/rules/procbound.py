"""P601–P604: process-boundary invariants of the sharded process backend.

These rules consume the layer-5 analysis of
:mod:`repro.analysis.procbound` — dispatch sites, the worker-reachable
function set, the picklability lattice, homeward surfaces — and enforce
the invariants the process backend's byte-identity claim rests on:

- **P601** — an unpicklable value (lock, pool, open file, lambda,
  generator, or an instance of a project class holding one without
  ``__getstate__``/``__reduce__``) flows into the process boundary:
  either a boundary class is itself unpicklable, or a constructor
  argument of a boundary class is definitely unpicklable (tracked
  interprocedurally through the callers' parameters).
- **P602** — an instance attribute is mutated in worker-reachable code
  but absent from the owning class's homeward surface (the attributes
  its ``__getstate__``/``adopt_*``/``export`` methods read), so the
  mutation dies with the worker — the PR 9 miss-counter bug shape.
- **P603** — a module-level mutable global is both read and written
  from worker-reachable code: each process sees its own copy, so the
  state silently diverges (split brain).  Intentional eager singletons
  are allowlisted in :data:`SPLIT_BRAIN_ALLOWLIST`.
- **P604** — the dispatching function folds shard results with
  ``dict.update``/list-``extend``/``+=`` instead of per-key stores or an
  order-pinned ``adopt_*``/``apply_to`` path, making the merge depend on
  shard order rather than input order.

All four are whole-program rules (``requires_graph``), non-cacheable and
deterministic: the boundary pass iterates the shared project graph in
sorted order, so cold, ``--cache`` and ``--changed-only`` runs produce
byte-identical findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule
from repro.analysis.graph import ProjectGraph, build_single_file_graph
from repro.analysis.procbound import (
    ProcessBoundaryAnalysis,
    process_boundary,
)

#: (relpath-suffix, global-name) pairs of intentional per-process
#: singletons P603 must not flag.  Every entry here is an *eager*
#: module-level value whose per-worker copy is by design: workers ship
#: their observations home through an explicit adopt/export surface
#: instead of mutating shared state.  Add a pair only with a comment
#: naming that homeward path.
SPLIT_BRAIN_ALLOWLIST: frozenset[tuple[str, str]] = frozenset(
    {
        # Library-health counters; worker-side counts are reported via
        # snapshots, never merged back into the parent's registry.
        ("repro/metrics/registry.py", "_DEFAULT_REGISTRY"),
        # Eagerly-built read-only gazetteer pools; never written after
        # import, duplicated per worker by design.
        ("repro/datasets/golden.py", "_SHARED_POOLS"),
    }
)

#: (line, col, message) proto-findings keyed by root-relative path.
_ProtoMap = dict[str, list[tuple[int, int, str]]]


class _ProcBoundRule(Rule):
    """Shared plumbing: boundary pass in prepare_graph, findings by file.

    Subclasses implement :meth:`_compute` over the shared
    :class:`ProcessBoundaryAnalysis`; ``check_file`` materializes the
    proto-findings landing in one file.  Without a prepared graph
    (``analyze_file``, editor integrations) the pass reruns over a
    single-file graph, so fixtures still fire.
    """

    requires_graph = True
    cacheable = False

    def __init__(self) -> None:
        self._prepared = False
        self._by_path: _ProtoMap = {}

    def prepare(self, root: Path, files: list[Path]) -> None:
        self._prepared = False
        self._by_path = {}

    def prepare_graph(self, graph: ProjectGraph) -> None:
        self._prepared = True
        self._by_path = self._compute(process_boundary(graph))

    def _compute(self, analysis: ProcessBoundaryAnalysis) -> _ProtoMap:
        raise NotImplementedError

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        by_path = self._by_path
        if not self._prepared:  # single-file use (tests, editors)
            graph = build_single_file_graph(ctx.path, ctx.root)
            by_path = self._compute(process_boundary(graph))
        for line, col, message in by_path.get(ctx.relpath, ()):
            yield Finding(
                rule=self.rule_id,
                path=ctx.relpath,
                line=line,
                col=col,
                message=message,
                snippet=ctx.snippet_at(line),
                span=(line, line),
            )


@register_rule
class UnpicklableBoundaryRule(_ProcBoundRule):
    """P601: an unpicklable value flows into the process boundary."""

    rule_id = "P601"
    title = "unpicklable value flows into the process boundary"
    rationale = (
        "Task specs shipped to worker processes must pickle; a lock, "
        "pool, open file, lambda or generator smuggled into one fails "
        "at dispatch time — or worse, pickles a stale copy. Rebuild "
        "unpicklable services inside the worker from a picklable task "
        "spec (as _run_process_shard rebuilds the runner and ships a "
        "ShardResult home) or give the carrying class "
        "__getstate__/__setstate__."
    )
    example = (
        "tasks = [ShardTask(items=chunk, lock=threading.Lock())]\n"
        "with ProcessPoolExecutor() as pool:\n"
        "    pool.map(_worker, tasks)   # P601: Lock flows into "
        "ShardTask.lock\n"
        "# fix: drop the lock from the spec; create it in _worker()"
    )

    def _compute(self, analysis: ProcessBoundaryAnalysis) -> _ProtoMap:
        proto: _ProtoMap = {}
        for relpath, line, col, message in (
            analysis.picklability_violations()
        ):
            proto.setdefault(relpath, []).append((line, col, message))
        return proto


@register_rule
class WorkerStateLossRule(_ProcBoundRule):
    """P602: worker-mutated attribute with no homeward path."""

    rule_id = "P602"
    title = "worker-mutated attribute missing from the homeward surface"
    rationale = (
        "State a worker process accumulates exists only in that "
        "process; it reaches the parent solely through the class's "
        "explicit surface — __getstate__, an adopt_* fold, or an "
        "export()ed value object. An attribute mutated in "
        "worker-reachable code but absent from that surface is silently "
        "dropped on merge (the process backend's miss-counter bug "
        "class). Add the attribute to the surface or stop mutating it "
        "worker-side."
    )
    example = (
        "class Stats:\n"
        "    def record(self):\n"
        "        self._hits += 1       # runs in the worker\n"
        "        self._misses += 1     # P602: not in __getstate__\n"
        "    def __getstate__(self):\n"
        "        return {'hits': self._hits}   # _misses never ships home"
    )

    def _compute(self, analysis: ProcessBoundaryAnalysis) -> _ProtoMap:
        proto: _ProtoMap = {}
        for ci in analysis.homeward_scope():
            surface = analysis.homeward_surface(ci)
            relpath = analysis.graph.modules[ci.module].relpath
            reported: set[str] = set()
            for attr, method, node in analysis.worker_mutations(ci):
                if attr in surface or attr in reported:
                    continue
                reported.add(attr)
                proto.setdefault(relpath, []).append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"attribute '{attr}' of {ci.name} is mutated in "
                        f"worker-reachable {method}() but no "
                        "__getstate__/adopt_*/export method reads it — "
                        "worker-side updates are lost on merge",
                    )
                )
        return proto


@register_rule
class SplitBrainGlobalRule(_ProcBoundRule):
    """P603: module-level mutable global read and written worker-side."""

    rule_id = "P603"
    title = "split-brain module global under the process backend"
    rationale = (
        "Each worker process imports its own copy of every module "
        "global; code that both reads and writes one from "
        "worker-reachable functions observes different state per "
        "process and silently diverges from the serial run. Pass the "
        "state through the task spec and merge it through an adopt "
        "path, or allowlist a deliberate per-process singleton in "
        "SPLIT_BRAIN_ALLOWLIST with its homeward story."
    )
    example = (
        "_SEEN: dict[str, int] = {}\n"
        "def _worker(task):            # worker-reachable\n"
        "    if task.name in _SEEN:    # read\n"
        "        return _SEEN[task.name]\n"
        "    _SEEN[task.name] = cost(task)   # P603: write diverges "
        "per process"
    )

    def _compute(self, analysis: ProcessBoundaryAnalysis) -> _ProtoMap:
        proto: _ProtoMap = {}
        graph = analysis.graph
        #: owner (module, name) -> mutable-global definition statement.
        owners: dict[tuple[str, str], object] = {}
        mutable_by_module: dict[str, dict] = {}
        worker_modules = {
            graph.functions[q].module
            for q in analysis.worker_reachable
            if q in graph.functions
        }
        for mod_name in sorted(worker_modules):
            module = graph.modules[mod_name]
            mutable = analysis.module_mutable_globals(module)
            mutable_by_module[mod_name] = mutable
            for name, stmt in mutable.items():
                owners[(mod_name, name)] = stmt
        reads: dict[tuple[str, str], str] = {}
        writes: dict[tuple[str, str], tuple[str, int]] = {}
        for qualname in sorted(analysis.worker_reachable):
            fn = graph.functions.get(qualname)
            if fn is None or fn.node is None:
                continue
            module = graph.modules[fn.module]
            local_names = set(mutable_by_module.get(fn.module, ()))
            #: local alias -> owner (module, name) for imported globals.
            alias_owner: dict[str, tuple[str, str]] = {}
            for alias, target in module.aliases.items():
                resolved = graph.resolve_dotted(target)
                if resolved is None:
                    continue
                owner_mod, rest = resolved
                if rest and "." not in rest and (owner_mod, rest) in owners:
                    alias_owner[alias] = (owner_mod, rest)
            names = frozenset(local_names | set(alias_owner))
            fn_reads, fn_writes = analysis.global_accesses(fn, names)
            for name in fn_reads:
                owner = alias_owner.get(name, (fn.module, name))
                if owner in owners:
                    reads.setdefault(owner, fn.name)
            for name, site in fn_writes.items():
                owner = alias_owner.get(name, (fn.module, name))
                if owner in owners and owner not in writes:
                    writes[owner] = (fn.name, site.lineno)
        for owner in sorted(set(reads) & set(writes)):
            mod_name, name = owner
            module = graph.modules[mod_name]
            if any(
                module.relpath.endswith(suffix) and name == allowed
                for suffix, allowed in SPLIT_BRAIN_ALLOWLIST
            ):
                continue
            stmt = owners[owner]
            writer, write_line = writes[owner]
            proto.setdefault(module.relpath, []).append(
                (
                    stmt.lineno,
                    stmt.col_offset,
                    f"module global '{name}' is read (in {reads[owner]}()) "
                    f"and written (in {writer}(), line {write_line}) by "
                    "worker-reachable code — each worker process diverges "
                    "on its own copy",
                )
            )
        return proto


@register_rule
class UnpinnedMergeFoldRule(_ProcBoundRule):
    """P604: shard-result fold that is not order-pinned."""

    rule_id = "P604"
    title = "order-sensitive merge fold over process-shard results"
    rationale = (
        "Shard results arrive grouped by worker, not in input order; a "
        "dict.update/list-extend/+= fold over them bakes shard order "
        "into the merged value, so re-sharding changes the output. "
        "Store per-key items (acc[key] = value), or route the merge "
        "through an order-pinned adopt_*/apply_to/merge path."
    )
    example = (
        "results = list(pool.map(_worker, tasks))\n"
        "merged = {}\n"
        "for result in results:\n"
        "    merged.update(result.writes)   # P604: last shard wins "
        "on collisions\n"
        "# fix: for key, value in result.writes.items(): "
        "merged[key] = value"
    )

    def _compute(self, analysis: ProcessBoundaryAnalysis) -> _ProtoMap:
        proto: _ProtoMap = {}
        seen: set[tuple[str, int, int]] = set()
        for dispatch in analysis.dispatches:
            for node, description in analysis.merge_folds(dispatch):
                where = (dispatch.relpath, node.lineno, node.col_offset)
                if where in seen:
                    continue
                seen.add(where)
                proto.setdefault(dispatch.relpath, []).append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"{description} in shard order — collisions "
                        "resolve by worker layout, not input order; use "
                        "a keyed per-item store or an order-pinned "
                        "adopt_*/apply_to path",
                    )
                )
        return proto
