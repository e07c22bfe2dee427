"""The import boundary: packages export lazily, and nothing imports late.

Every package ``__init__`` names its exports once, in a lazy table
(:mod:`repro._lazy`).  These tests pin what that must not change: each
exported name is the same object before and after every submodule is
imported, every ``__all__`` keeps its content and order, the fault-site
catalogue is complete in a fresh process, a fit or serve path
imports nothing past the imports of its entry points, every module
has a caller outside the tests, and in the modules swept for options no
function keeps a defaulted parameter that no caller outside the tests
passes.
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
#: over all 16 packages (288 names).
ALL_DIGEST = "69acb121263b16730c9425c7c7b580db"

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
    assert out[-1] == "checked 288", out
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
    "repro.evaluation.reporting": (
        "renders run_seeds output as EXPERIMENTS.md's tables; the quality "
        "gate (ROADMAP item 7) regenerates them through it"
    ),
    "repro.linalg.checks": "reference checks the tests judge solver outputs by",
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


#: Modules swept for options only the tests set: in these, every
#: defaulted parameter of a module-level function must be passed by some
#: call outside the tests.
OPTION_SWEPT = (
    "repro.baselines.single_view",
    "repro.cluster.labels",
    "repro.cluster.spectral",
    "repro.core.discrete",
    "repro.core.graph_builder",
    "repro.datasets.synth",
    "repro.evaluation.curves",
    "repro.evaluation.tables",
    "repro.graph.adaptive",
    "repro.graph.affinity",
    "repro.graph.anchor",
    "repro.graph.connectivity",
    "repro.graph.fusion",
    "repro.graph.sparse",
    "repro.linalg.gpi",
    "repro.linalg.procrustes",
    "repro.metrics.accuracy",
    "repro.metrics.ari",
    "repro.metrics.nmi",
    "repro.observability.analysis",
    "repro.observability.export",
    "repro.robust.policy",
    "repro.serving.artifact",
    "repro.serving.service",
    "repro.utils.validation",
)


def _call_arguments() -> dict[str, tuple[set, int, bool]]:
    """What calls outside the tests pass, by the called function's name.

    ``{name: (keywords passed, most positionals passed, splatted)}`` over
    every ``name(...)`` and ``obj.name(...)`` in ``src/``, ``benchmarks/``,
    ``examples/`` and ``perfbench/``; ``splatted`` is true when some call
    passes ``*args`` or ``**kwargs``, which may carry any parameter.
    """
    paths = glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)
    for folder in ("benchmarks", "examples", "perfbench"):
        paths += glob.glob(os.path.join(REPO, folder, "*.py"))
    passed: dict[str, tuple[set, int, bool]] = {}
    for path in paths:
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


def test_every_option_has_a_caller():
    # A function no code outside the tests calls by name (a public
    # export, or a callable handed to the cache) is skipped: no call
    # shows which of its options are needed.
    passed = _call_arguments()
    modules = _source_modules()
    unused = []
    for module in OPTION_SWEPT:
        for node in _parse(modules[module]).body:
            if not isinstance(node, ast.FunctionDef) or node.name not in passed:
                continue
            keywords, positional, splatted = passed[node.name]
            args = node.args
            params = [*args.posonlyargs, *args.args]
            first = len(params) - len(args.defaults)
            defaulted = [(i, p.arg) for i, p in enumerate(params) if i >= first]
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
                unused.append(f"{module}.{node.name}({name}=)")
    assert unused == [], unused
