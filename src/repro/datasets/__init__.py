"""Multi-view datasets: container, synthetic generators, benchmark registry.

The paper evaluates on famous real multi-view benchmarks (3-Sources,
BBCSport, MSRC-v1, Handwritten numerals, Caltech101-7, ORL, Yale).  This
environment has no network access, so :mod:`repro.datasets.benchmarks`
provides *benchmark-shaped synthetic substitutes*: generators that produce
datasets with the same sample count, view count, per-view dimensionalities,
and cluster count as the originals, with per-view quality heterogeneity and
complementary cluster information calibrated so the relative behaviour of
the algorithms (multi-view > single-view, unified > two-stage) is exercised
on the same code paths.  See DESIGN.md "Substitutions".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DatasetSpec": "benchmarks",
    "available_benchmarks": "benchmarks",
    "get_spec": "benchmarks",
    "load_benchmark": "benchmarks",
    "MultiViewDataset": "container",
    "load_dataset": "io",
    "save_dataset": "io",
    "make_latent_clusters": "synth",
    "make_multiview_blobs": "synth",
    "view_from_latent": "synth",
    "SCENARIOS": "scenarios",
    "Scenario": "scenarios",
    "ScenarioData": "scenarios",
    "StreamBatch": "scenarios",
    "StreamDrift": "scenarios",
    "available_scenarios": "scenarios",
    "generate": "scenarios",
    "get_scenario": "scenarios",
    "stream_batches": "scenarios",
})
