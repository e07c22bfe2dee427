"""The import boundary: packages export lazily, and nothing imports late.

Every package ``__init__`` names its exports once, in a lazy table
(:mod:`repro._lazy`).  These tests pin what that must not change: each
exported name is the same object before and after every submodule is
imported, every ``__all__`` keeps its content and order, the fault-site
catalogue is complete in a fresh process, a fit or serve path
imports nothing past the imports of its entry points, every module
and every public function, class and method has a caller outside the
tests, and no function, constructor or method under ``src/repro``
keeps a defaulted parameter that no caller outside the tests passes,
apart from the allowed ones listed with their reasons.
"""

from __future__ import annotations

import ast
import glob
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import repro
from repro.robust.faults import SITE_OWNERS

SRC = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))
REPO = os.path.dirname(SRC)

#: blake2b (16 bytes) of ``json.dumps({package: __all__}, sort_keys=True)``
#: over all 16 packages (274 names).
ALL_DIGEST = "5458b9863c014a3f8058868cc4643787"

#: Modules a fit or serve path must never load.
HEAVY = (
    "scipy.special",
    "http.server",
    "cProfile",
    "pstats",
    "tracemalloc",
    "repro.evaluation",
    "repro.baselines",
    "repro.cli",
    "repro.bench",
    "repro.observability.health",
)


def _fresh(script: str) -> str:
    """Run ``script`` in a new interpreter on this ``src``; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _packages() -> list[str]:
    found = pkgutil.walk_packages(repro.__path__, "repro.")
    return ["repro", *sorted(m.name for m in found if m.ispkg)]


#: Modules a serving process must never load: serving runs only the
#: kNN kernel vote, and these hold the fit path's solvers and sparse
#: graphs (no sparse matrix reaches a served model).
SOLVERS = (
    "scipy",
    "scipy.sparse",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "repro.linalg.eigen",
    "repro.core",
)


def test_every_all_is_unchanged():
    lists = {p: list(importlib.import_module(p).__all__) for p in _packages()}
    blob = json.dumps(lists, sort_keys=True)
    digest = hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()
    assert digest == ALL_DIGEST, blob


def test_dir_lists_every_export():
    for name in _packages():
        package = importlib.import_module(name)
        missing = set(package.__all__) - set(dir(package))
        assert not missing, (name, missing)


IDENTITY_SCRIPT = """
import importlib, pkgutil, sys, types
import repro

packages = ["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
]
first = {}
for p in packages:
    package = importlib.import_module(p)
    for name in package.__all__:
        first[p, name] = getattr(package, name)
for m in pkgutil.walk_packages(repro.__path__, "repro."):
    if not m.name.endswith("__main__"):
        importlib.import_module(m.name)
for (p, name), value in first.items():
    now = getattr(sys.modules[p], name)
    home = getattr(value, "__module__", None)
    if isinstance(value, types.ModuleType):
        print("module", p, name)
    elif now is not value:
        print("rebound", p, name)
    elif home and getattr(sys.modules[home], name, value) is not value:
        print("not the defining object", p, name)
print("checked", len(first))
"""


def test_exports_are_the_defining_objects_before_and_after_submodules():
    out = _fresh(IDENTITY_SCRIPT).splitlines()
    assert out[-1] == "checked 274", out
    assert out[:-1] == []


def test_fault_sites_complete_in_a_fresh_process():
    out = _fresh(
        "from repro.robust import FaultSpec, inject_faults, "
        "registered_fault_sites\n"
        "print(len(registered_fault_sites()))\n"
        "with inject_faults(FaultSpec('kmeans.init')) as plan:\n"
        "    print(plan.specs[0].site)\n"
    )
    assert out.split() == ["15", "kmeans.init"]


def test_every_site_owner_is_listed():
    owners = set()
    root = os.path.join(SRC, "repro")
    for dirpath, _, files in os.walk(root):
        for file in files:
            if not file.endswith(".py"):
                continue
            path = os.path.join(dirpath, file)
            with open(path) as handle:
                text = handle.read()
            calls = [
                line
                for line in text.splitlines()
                if "register_fault_site(" in line
                and ">>>" not in line
                and "def register_fault_site(" not in line
            ]
            if calls:
                module = os.path.relpath(path, SRC)[: -len(".py")]
                owners.add(module.replace(os.sep, "."))
    assert len(owners) == 12
    assert owners == set(SITE_OWNERS)


NO_LATE_IMPORT_SCRIPT = """
import sys

import numpy as np

import repro
from repro.core.anchor_model import AnchorMVSC
from repro.core.model import UnifiedMVSC
from repro.core.sparse_model import SparseMVSC
from repro.datasets.scenarios import generate, get_scenario, stream_batches
from repro.exceptions import ReproError
from repro.metrics.ari import adjusted_rand_index
from repro.robust.policy import collect_recoveries
from repro.serving import ModelArtifact, PredictionService, Predictor
from repro.streaming.model import StreamingMVSC

loaded = set(sys.modules)

data = generate("heterogeneous", n_samples=60, random_state=0)
UnifiedMVSC(4, random_state=0).fit(data.views)
SparseMVSC(4, random_state=0).fit_predict(data.views)
batches = stream_batches(get_scenario("clean").with_size(20), 8, random_state=0)
first = [np.vstack(block) for block in zip(*(b.views for b in batches[:6]))]
stream = StreamingMVSC(AnchorMVSC(4, random_state=0))
stream.partial_fit(first)
stream.partial_fit(batches[6].views)
adjusted_rand_index(data.labels, data.labels)
with collect_recoveries():
    pass

artifact = ModelArtifact(
    model_class="UnifiedMVSC",
    train_views=[x[:50] for x in data.views],
    train_labels=data.labels[:50],
    view_weights=np.ones(len(data.views)),
    n_clusters=4,
)
predictor = Predictor(artifact)
predictor.predict([x[50:] for x in data.views])
service = PredictionService(predictor)
service.submit([x[55] for x in data.views]).result(timeout=30)
service.close()

from repro.backends import current_backend
from repro.observability.memory import current_memory
from repro.observability.profiling import current_profiling
from repro.observability.trace import current_trace
from repro.pipeline.cache import current_cache

current_backend(), current_trace(), current_profiling()
current_memory(), current_cache()

print(sorted(set(sys.modules) - loaded))
print(sorted(name for name in HEAVY if name in sys.modules))
"""


def test_fit_and_serve_paths_import_nothing_late():
    script = f"HEAVY = {HEAVY!r}\n" + NO_LATE_IMPORT_SCRIPT
    late, heavy = _fresh(script).splitlines()[-2:]
    assert late == "[]"
    assert heavy == "[]"


SERVE_ONLY_SCRIPT = """
import sys

import numpy as np

from repro.serving import ModelArtifact, PredictionService, Predictor

rng = np.random.default_rng(0)
labels = np.repeat(np.arange(3), 20)
views = [rng.normal(size=(60, d)) + 4.0 * labels[:, None] for d in (5, 8)]
artifact = ModelArtifact(
    model_class="UnifiedMVSC",
    train_views=[x[:50] for x in views],
    train_labels=labels[:50],
    view_weights=np.ones(len(views)),
    n_clusters=3,
)
predictor = Predictor(artifact)
predictor.predict([x[50:] for x in views])
service = PredictionService(predictor)
service.submit([x[55] for x in views]).result(timeout=30)
service.close()

print(sorted(name for name in SOLVERS if name in sys.modules))
"""


def test_serving_loads_no_solver_code():
    script = f"SOLVERS = {SOLVERS!r}\n" + SERVE_ONLY_SCRIPT
    assert _fresh(script).splitlines()[-1] == "[]"


#: Modules no entry point imports, each kept for a stated reason.
NO_CALLER = {
    "repro.graph.knn": (
        "reference kNN graph; the backend tests pin the kNN kernel's "
        "digest through kneighbors"
    ),
}


def _source_modules() -> dict[str, str]:
    """``{dotted module name: path}`` for every module under ``src/repro``."""
    found = {}
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True):
        parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _parse(path: str) -> ast.Module:
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def _lazy_table(tree: ast.Module) -> dict[str, str]:
    """The ``lazy_exports`` table of a package ``__init__`` (``{}`` if none)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            return ast.literal_eval(node.args[1])
    return {}


def _imported(tree: ast.Module, module: str, is_package: bool, tables, modules):
    """Every module an import anywhere in ``tree`` names.

    ``from package import name`` resolves ``name`` as a submodule, else
    through the package's lazy table to the submodule defining it.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module if is_package else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            for alias in node.names:
                if f"{base}.{alias.name}" in modules:
                    yield f"{base}.{alias.name}"
                elif alias.name in tables.get(base, {}):
                    yield f"{base}.{tables[base][alias.name]}"


def test_every_module_has_a_caller():
    modules = _source_modules()
    trees = {name: _parse(path) for name, path in modules.items()}
    tables = {name: _lazy_table(tree) for name, tree in trees.items()}
    roots = {"repro.cli", "repro.__main__"}
    roots |= {f"repro.{source}" for source in tables["repro"].values()}
    for folder in ("benchmarks", "examples", "perfbench"):
        for path in glob.glob(os.path.join(REPO, folder, "*.py")):
            roots |= set(_imported(_parse(path), "", False, tables, modules))
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        chain = todo.pop().split(".")
        for depth in range(1, len(chain) + 1):
            prefix = ".".join(chain[:depth])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                is_package = modules[prefix].endswith("__init__.py")
                todo.extend(
                    _imported(trees[prefix], prefix, is_package, tables, modules)
                )
    unreached = sorted(set(modules) - reached)
    assert unreached == sorted(NO_CALLER), unreached


def _paths_outside_tests() -> list[str]:
    """Every Python file of ``src/``, ``benchmarks/``, ``examples/`` and
    ``perfbench/``."""
    paths = glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)
    for folder in ("benchmarks", "examples", "perfbench"):
        paths += glob.glob(os.path.join(REPO, folder, "*.py"))
    return paths


#: Public names no code outside the tests names, each kept for a stated
#: reason.  A method is listed as ``Class.method``.
NO_NAMED_CALLER = {
    "kneighbors": (
        "reference kNN search the backend tests compare the kNN kernel "
        "against"
    ),
    "sorted_eigh": (
        "reference dense eigendecomposition the eigensolver and fault "
        "tests compare against"
    ),
    "TraceRecorder": (
        "the in-memory listener the solver pins record iteration events "
        "through"
    ),
    "_TelemetryHandler.do_GET": "http.server hook, called per GET request",
    "_TelemetryHandler.log_message": (
        "http.server hook, overridden to silence per-request logging"
    ),
    "use_jobs": "documented entry point (docs/api_guide.md)",
    "use_policy": "documented entry point (docs/robustness.md)",
    "inject_faults": "documented entry point (docs/robustness.md)",
    "current_faults": "documented entry point (its module's doctest)",
    "current_context": "documented entry point (its module's doctest)",
    "tune_umsc": "documented entry point (docs/pipeline_cache.md)",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _naming_sites(trees) -> dict[str, list[tuple]]:
    """Where the parsed modules ``trees`` name each identifier.

    ``{name: [the definitions enclosing one naming, ...]}`` over every
    name, attribute, imported name and string constant (fit callbacks
    are dispatched by name, and perfbench patches functions by name).
    The lazy export tables are skipped: listing a name there calls
    nothing.
    """
    sites: dict[str, list[tuple]] = {}

    def visit(node, enclosing: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                visit(child, (*enclosing, child))
                continue
            if getattr(getattr(child, "func", None), "id", "") == "lazy_exports":
                continue
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name.rpartition(".")[2]
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value
            if name is not None:
                sites.setdefault(name, []).append(enclosing)
            visit(child, enclosing)

    for tree in trees:
        visit(tree, ())
    return sites


def test_every_public_name_has_a_caller():
    # A name used only inside its own definition (a recursive call, a
    # classmethod building its class) has no caller.
    trees = {path: _parse(path) for path in _paths_outside_tests()}
    sites = _naming_sites(trees.values())
    uncalled = []
    for path in _source_modules().values():
        for node in trees[path].body:
            if not isinstance(node, _DEFINITIONS):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, _DEFINITIONS)
                ]
            for qualname, definition in members:
                if definition.name.startswith("_"):
                    continue
                outers = sites.get(definition.name, [])
                if all(definition in outer for outer in outers):
                    uncalled.append(qualname)
    assert sorted(uncalled) == sorted(NO_NAMED_CALLER), sorted(uncalled)


_ENTRY_POINT = (
    "user-facing entry point examples/ call; ROADMAP item 6 keeps it"
)
_TUNED = "recorded in the artifact config; ROADMAP items 8 and 16 tune it"
_DRIFT_KNOB = "drift-detector knob docs/streaming.md documents"

#: Defaulted parameters no call outside the tests passes, each kept for a
#: stated reason.  Listed as ``module.function(option=)``,
#: ``module.Class(option=)`` for a constructor and
#: ``module.Class.method(option=)`` for a method.
OPTION_KEPT = {
    "repro.cli.main(argv=)": (
        "the entry-point seam: tests run the CLI in-process"
    ),
    "repro.cli.main(out=)": (
        "the entry-point seam: tests capture the CLI's output"
    ),
    "repro.core.out_of_sample.propagate_labels(n_clusters=)": _ENTRY_POINT,
    "repro.core.out_of_sample.propagate_labels(n_neighbors=)": _ENTRY_POINT,
    "repro.datasets.benchmarks.load_benchmark(random_state=)": _ENTRY_POINT,
    "repro.core.sparse_model.SparseMVSC(n_neighbors=)": _TUNED,
    "repro.core.sparse_model.SparseMVSC(gamma=)": _TUNED,
    "repro.core.sparse_model.SparseMVSC(weighting=)": _TUNED,
    "repro.core.sparse_model.SparseMVSC(max_iter=)": _TUNED,
    "repro.core.sparse_model.SparseMVSC(n_restarts=)": _TUNED,
    "repro.core.anchor_model.AnchorMVSC(n_anchor_neighbors=)": _TUNED,
    "repro.core.anchor_model.AnchorMVSC(gamma=)": _TUNED,
    "repro.core.anchor_model.AnchorMVSC(weighting=)": _TUNED,
    "repro.core.anchor_model.AnchorMVSC(max_iter=)": _TUNED,
    "repro.core.anchor_model.AnchorMVSC(n_restarts=)": _TUNED,
    "repro.streaming.drift.ObjectiveShiftDetector(threshold=)": _DRIFT_KNOB,
    "repro.streaming.drift.ObjectiveShiftDetector(hysteresis=)": _DRIFT_KNOB,
    "repro.streaming.drift.ObjectiveShiftDetector(cooldown=)": _DRIFT_KNOB,
    "repro.streaming.drift.ObjectiveShiftDetector(window=)": _DRIFT_KNOB,
    "repro.streaming.drift.ViewWeightShiftDetector(threshold=)": _DRIFT_KNOB,
    "repro.streaming.drift.ViewWeightShiftDetector(hysteresis=)": _DRIFT_KNOB,
    "repro.streaming.drift.ViewWeightShiftDetector(cooldown=)": _DRIFT_KNOB,
    "repro.serving.service.PredictionService.submit(request_id=)": (
        "per-call data: the client's own request id"
    ),
    "repro.serving.service.PredictionService.predict_one(timeout=)": (
        "per-call data: the client's deadline"
    ),
    "repro.pipeline.cache.ComputationCache(max_items=)": (
        "deployment memory bound"
    ),
    "repro.pipeline.cache.ComputationCache(max_bytes=)": (
        "deployment memory bound"
    ),
    "repro.serving.telemetry.TelemetryServer(health_rules=)": (
        "documented in docs/observability.md"
    ),
}


def _call_arguments() -> dict[str, tuple[set, int, bool]]:
    """What calls outside the tests pass, by the called function's name.

    ``{name: (keywords passed, most positionals passed, splatted)}`` over
    every ``name(...)`` and ``obj.name(...)`` in ``src/``, ``benchmarks/``,
    ``examples/`` and ``perfbench/``; ``splatted`` is true when some call
    passes ``*args`` or ``**kwargs``, which may carry any parameter.
    """
    passed: dict[str, tuple[set, int, bool]] = {}
    for path in _paths_outside_tests():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords, positional, splatted = passed.get(name, (set(), 0, False))
            keywords |= {k.arg for k in node.keywords if k.arg}
            splatted = (
                splatted
                or any(k.arg is None for k in node.keywords)
                or any(isinstance(a, ast.Starred) for a in node.args)
            )
            passed[name] = (keywords, max(positional, len(node.args)), splatted)
    return passed


def _option_sites(tree: ast.Module):
    """``(called name, qualified name, definition, bound)`` for every
    module-level function, constructor and method of ``tree``.

    A constructor is called by its class's name and a method by its own;
    ``bound`` is 1 when the first parameter is ``self`` or ``cls``, which
    no call passes.  A dataclass's generated constructor has no
    definition here, so its fields are not swept.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(
                    getattr(d, "id", "") == "staticmethod"
                    for d in member.decorator_list
                )
                if member.name == "__init__":
                    yield node.name, node.name, member, 1
                else:
                    qualname = f"{node.name}.{member.name}"
                    yield member.name, qualname, member, int(not static)


def test_every_option_has_a_caller():
    # A callable no code outside the tests calls by name (a public
    # export, or a callable handed to the cache) is skipped: no call
    # shows which of its options are needed.
    passed = _call_arguments()
    unused = []
    for module, path in _source_modules().items():
        for called, qualname, node, bound in _option_sites(_parse(path)):
            if called not in passed:
                continue
            keywords, positional, splatted = passed[called]
            args = node.args
            params = [*args.posonlyargs, *args.args]
            first = len(params) - len(args.defaults)
            defaulted = [
                (i - bound, p.arg) for i, p in enumerate(params) if i >= first
            ]
            defaulted += [
                (None, p.arg)
                for p, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for index, name in defaulted:
                if splatted or name in keywords:
                    continue
                if index is not None and index < positional:
                    continue
                unused.append(f"{module}.{qualname}({name}=)")
    assert sorted(unused) == sorted(OPTION_KEPT), sorted(unused)
