"""Plain-text rendering of result tables in the paper's layout.

Table I (:func:`format_dataset_table`) lists the benchmarks.  Tables
II-IV are methods (rows) x datasets (columns) with ``mean±std`` cells;
the best mean per column is marked with ``*`` (the paper bolds it).
"""

from __future__ import annotations

import numpy as np


def format_rows(headers, rows) -> str:
    """Generic fixed-width table formatter, two spaces between columns.

    Parameters
    ----------
    headers : sequence of str
        Column titles.
    rows : sequence of sequence
        Cell values (converted with ``str``); each row must match the
        header length.

    Returns
    -------
    str
        The rendered table with a dashed header rule.
    """
    headers = [str(h) for h in headers]
    text_rows = [[str(c) for c in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in text_rows)) if text_rows else len(headers[j])
        for j in range(len(headers))
    ]

    def render(cells) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(r) for r in text_rows)
    return "\n".join(lines)


def format_dataset_table(names) -> str:
    """Table I: each named benchmark's size, views, per-view dimensions,
    clusters and the real dataset it mirrors, read from its spec."""
    from repro.datasets import get_spec

    rows = []
    for name in names:
        spec = get_spec(name)
        dims = "/".join(str(d) for d in spec.view_dims)
        mirrors = spec.reference.split("(")[0].strip()
        rows.append(
            [name, spec.n_samples, len(spec.view_dims), dims, spec.n_clusters, mirrors]
        )
    return format_rows(["dataset", "n", "views", "dims", "clusters", "mirrors"], rows)


def format_metric_table(results_by_dataset: dict, metric: str) -> str:
    """Render one metric across datasets (the layout of Tables II-IV).

    The best mean of each dataset column carries a ``*``.

    Parameters
    ----------
    results_by_dataset : dict
        ``{dataset_name: {method_name: MethodScores}}`` as produced by
        :func:`repro.evaluation.runner.run_experiment` per dataset.
    metric : str
        Metric key present in every ``MethodScores.scores``.

    Returns
    -------
    str
    """
    datasets = list(results_by_dataset)
    if not datasets:
        return "(no results)"
    method_order: list[str] = []
    for per_method in results_by_dataset.values():
        for name in per_method:
            if name not in method_order:
                method_order.append(name)

    best: dict[str, str] = {}
    for ds in datasets:
        per_method = results_by_dataset[ds]
        means = {
            m: s.scores[metric].mean
            for m, s in per_method.items()
            if metric in s.scores
        }
        if means:
            best[ds] = max(means, key=lambda k: means[k])

    rows = []
    for name in method_order:
        row = [name]
        for ds in datasets:
            score = results_by_dataset[ds].get(name)
            if score is None or metric not in score.scores:
                row.append("-")
                continue
            cell = str(score.scores[metric])
            if best.get(ds) == name:
                cell += "*"
            row.append(cell)
        rows.append(row)
    title = f"{metric.upper()} (mean±std; * = best per dataset)"
    table = format_rows(["method"] + datasets, rows)
    return f"{title}\n{table}"


def summarize_ranks(results_by_dataset: dict, metric: str) -> dict:
    """Average rank of each method across datasets (1 = best)."""
    datasets = list(results_by_dataset)
    ranks: dict[str, list] = {}
    for ds in datasets:
        per_method = results_by_dataset[ds]
        means = {
            m: s.scores[metric].mean
            for m, s in per_method.items()
            if metric in s.scores
        }
        order = sorted(means, key=lambda k: -means[k])
        for rank, name in enumerate(order, start=1):
            ranks.setdefault(name, []).append(rank)
    return {name: float(np.mean(r)) for name, r in ranks.items()}
