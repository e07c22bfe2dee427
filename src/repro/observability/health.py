"""Declarative health rules over metrics snapshots (SLO/alert engine).

The observability layers *record* signals — counters, gauges, bounded
histograms, trace files — but nothing judges them.  This module turns a
:meth:`~repro.observability.metrics.MetricsRegistry.snapshot` (or the
snapshot embedded in a saved JSONL trace) into a verdict:

* :class:`HealthRule` — one declarative rule.  Three kinds:
  ``threshold`` (a metric against min/max bounds), ``ratio`` (two
  metrics divided, e.g. rejected/submitted), and ``absence`` (fail when
  an expected metric never appeared).
* :func:`evaluate_rules` — evaluate a rule list against one snapshot,
  returning a :class:`HealthReport` (per-rule
  :class:`RuleResult` rows with ``ok`` / ``failing`` / ``skipped``
  status — a rule whose metric is absent *skips* rather than fails,
  except for ``absence`` rules, so the serving pack never pages about
  solver gauges and vice versa).
* :func:`default_rule_pack` — the shipped six rules: recovery-rate,
  service rejection-rate, serving p99 latency, drift-escalation
  frequency, view-weight collapse, and eigengap collapse.  The last two
  read the ``health.*`` gauges the solvers publish
  (:func:`repro.core.weights.weight_entropy` from the w-step).
* :class:`HealthMonitor` — a live wrapper binding a rule list to one
  registry; the serving ``/healthz`` endpoint evaluates one per request
  and flips readiness (HTTP 503) when a *critical* rule fails.
* :func:`load_rules` — reads custom packs from JSON
  (``repro health check --rules FILE``).

Metric selectors are strings: ``"counter:eigsh.calls"``,
``"gauge:health.eigengap"``, ``"histogram:serving.request_seconds:p99"``.
A trailing ``.*`` sums every metric under the prefix
(``"counter:recovery.*"``), and ``+`` sums several selectors
(``"counter:a+counter:b"``).  A selector that matches nothing resolves
to ``None`` (→ skipped), except ratio numerators, which default to 0 —
"no rejections recorded" genuinely means a zero rejection rate.

Offline entry point: ``repro health check [--from-trace | --from-bench]``
with CI-friendly exit codes (0 healthy, 1 critical rule failing,
2 unreadable input).

Examples
--------
>>> rule = HealthRule(
...     name="error-rate", kind="ratio", selector="counter:errors",
...     denominator="counter:requests", max_value=0.1,
...     severity="critical",
... )
>>> snapshot = {"counters": {"errors": 3, "requests": 10},
...             "gauges": {}, "histograms": {}}
>>> result = evaluate_rule(rule, snapshot)
>>> result.status, result.value, result.critical
('failing', 0.3, True)
>>> report = evaluate_rules([rule], snapshot)
>>> report.ok
False
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.exceptions import ValidationError

#: Rule kinds the engine understands.
RULE_KINDS = ("threshold", "ratio", "absence")

#: Rule severities; ``critical`` failures flip serving readiness and the
#: ``repro health check`` exit code, ``warning`` failures only report.
SEVERITIES = ("warning", "critical")

_SECTIONS = {"counter": "counters", "gauge": "gauges"}


def _validate_single_selector(selector: str, label: str) -> None:
    parts = selector.split(":")
    if len(parts) == 2 and parts[0] in _SECTIONS and parts[1]:
        return
    if len(parts) == 3 and parts[0] == "histogram" and parts[1] and parts[2]:
        return
    raise ValidationError(
        f"{label} {selector!r} is not a metric selector; expected "
        f"'counter:<name>', 'gauge:<name>', or 'histogram:<name>:<stat>'"
    )


def _validate_selector(selector: str, label: str) -> None:
    if not selector:
        raise ValidationError(f"{label} must be a non-empty metric selector")
    for part in selector.split("+"):
        _validate_single_selector(part, label)


def _resolve_single(snapshot: dict, selector: str):
    parts = selector.split(":")
    if parts[0] == "histogram":
        entry = snapshot.get("histograms", {}).get(parts[1])
        if entry is None:
            return None
        return entry.get(parts[2])
    section = snapshot.get(_SECTIONS[parts[0]], {})
    name = parts[1]
    if name.endswith(".*"):
        prefix = name[:-1]  # keep the trailing dot
        matches = [v for k, v in section.items() if k.startswith(prefix)]
        return float(sum(matches)) if matches else None
    value = section.get(name)
    return None if value is None else float(value)


def resolve_metric(snapshot: dict, selector: str):
    """Resolve one selector against a registry snapshot.

    Parameters
    ----------
    snapshot : dict
        A ``{"counters", "gauges", "histograms"}`` snapshot (the
        :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`
        shape, also embedded in JSONL traces and bench reports).
    selector : str
        ``"counter:<name>"`` / ``"gauge:<name>"`` /
        ``"histogram:<name>:<stat>"``; ``<name>`` may end in ``.*``
        (prefix sum) and several selectors may be joined with ``+``.

    Returns
    -------
    float or None
        ``None`` when nothing matched (the caller decides whether that
        means "skip" or "fail").
    """
    _validate_selector(selector, "selector")
    values = [_resolve_single(snapshot, part) for part in selector.split("+")]
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(sum(present))


@dataclass(frozen=True)
class HealthRule:
    """One declarative health rule over a metrics snapshot.

    Parameters
    ----------
    name : str
        Stable identifier (shows up in ``/healthz`` bodies and CLI rows).
    kind : {"threshold", "ratio", "absence"}
        How ``selector`` is turned into the judged value.
    selector : str
        Metric selector (the ratio numerator for ``kind="ratio"``).
    denominator : str
        Ratio denominator selector (``ratio`` only).
    max_value, min_value : float, optional
        Failing bounds: the rule fails when the value exceeds
        ``max_value`` or undercuts ``min_value``.  At least one is
        required except for ``absence`` rules.
    severity : {"warning", "critical"}
        ``critical`` failures flip readiness / exit codes.
    description : str
        One operator-facing line about what the rule guards.
    """

    name: str
    kind: str
    selector: str
    denominator: str = ""
    max_value: float | None = None
    min_value: float | None = None
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("rule name must be non-empty")
        if self.kind not in RULE_KINDS:
            raise ValidationError(
                f"rule {self.name!r} has unknown kind {self.kind!r}; "
                f"choose from {RULE_KINDS}"
            )
        if self.severity not in SEVERITIES:
            raise ValidationError(
                f"rule {self.name!r} has unknown severity "
                f"{self.severity!r}; choose from {SEVERITIES}"
            )
        _validate_selector(self.selector, f"rule {self.name!r} selector")
        if self.kind == "ratio":
            _validate_selector(
                self.denominator, f"rule {self.name!r} denominator"
            )
        elif self.denominator:
            raise ValidationError(
                f"rule {self.name!r} is kind {self.kind!r}; denominator "
                f"only applies to ratio rules"
            )
        if self.kind != "absence" and (
            self.max_value is None and self.min_value is None
        ):
            raise ValidationError(
                f"rule {self.name!r} needs max_value and/or min_value"
            )

    def to_dict(self) -> dict:
        """JSON-ready form (the :func:`load_rules` input shape)."""
        payload = {
            "name": self.name,
            "kind": self.kind,
            "selector": self.selector,
            "severity": self.severity,
        }
        if self.denominator:
            payload["denominator"] = self.denominator
        if self.max_value is not None:
            payload["max_value"] = self.max_value
        if self.min_value is not None:
            payload["min_value"] = self.min_value
        if self.description:
            payload["description"] = self.description
        return payload


@dataclass(frozen=True)
class RuleResult:
    """One rule's outcome against one snapshot."""

    rule: HealthRule
    status: str  # "ok" | "failing" | "skipped"
    value: float | None
    detail: str = ""

    @property
    def failing(self) -> bool:
        """True when the rule fired."""
        return self.status == "failing"

    @property
    def critical(self) -> bool:
        """True when the rule fired at ``critical`` severity."""
        return self.failing and self.rule.severity == "critical"

    def to_dict(self) -> dict:
        """JSON-ready row (``/healthz`` body, ``repro health --json``)."""
        return {
            "rule": self.rule.name,
            "kind": self.rule.kind,
            "severity": self.rule.severity,
            "status": self.status,
            "value": self.value,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class HealthReport:
    """The outcome of evaluating one rule list against one snapshot."""

    results: list = field(default_factory=list)

    @property
    def failing(self) -> list:
        """The rows whose rules fired."""
        return [r for r in self.results if r.failing]

    @property
    def critical_failures(self) -> list:
        """The failing rows at ``critical`` severity."""
        return [r for r in self.results if r.critical]

    @property
    def ok(self) -> bool:
        """True when no rule fired (skipped rules don't count)."""
        return not self.failing

    def to_dict(self) -> dict:
        """JSON-ready report (written by ``repro health check --json``)."""
        return {
            "ok": self.ok,
            "critical": bool(self.critical_failures),
            "rules_evaluated": len(self.results),
            "failing": [r.to_dict() for r in self.failing],
            "results": [r.to_dict() for r in self.results],
        }


def _judge(rule: HealthRule, value: float) -> RuleResult:
    if rule.max_value is not None and value > rule.max_value:
        return RuleResult(
            rule, "failing", value,
            f"value {value:.6g} > max {rule.max_value:.6g}",
        )
    if rule.min_value is not None and value < rule.min_value:
        return RuleResult(
            rule, "failing", value,
            f"value {value:.6g} < min {rule.min_value:.6g}",
        )
    return RuleResult(rule, "ok", value)


def evaluate_rule(rule: HealthRule, snapshot: dict) -> RuleResult:
    """Evaluate one rule against one snapshot."""
    if rule.kind == "absence":
        value = resolve_metric(snapshot, rule.selector)
        if value is None:
            return RuleResult(
                rule, "failing", None,
                f"expected metric {rule.selector!r} never appeared",
            )
        return RuleResult(rule, "ok", value)
    if rule.kind == "threshold":
        value = resolve_metric(snapshot, rule.selector)
        if value is None:
            return RuleResult(rule, "skipped", None, "metric absent")
        return _judge(rule, value)
    # ratio
    denominator = resolve_metric(snapshot, rule.denominator)
    if denominator is None or denominator <= 0:
        return RuleResult(rule, "skipped", None, "denominator absent or zero")
    numerator = resolve_metric(snapshot, rule.selector)
    return _judge(rule, (numerator or 0.0) / denominator)


def evaluate_rules(rules, snapshot: dict) -> HealthReport:
    """Evaluate every rule against ``snapshot``; see :func:`evaluate_rule`."""
    return HealthReport(
        results=[evaluate_rule(rule, snapshot) for rule in rules]
    )


def default_rule_pack() -> list:
    """The shipped rule pack (see ``docs/observability.md`` for the table).

    Six rules spanning the solver, serving, and streaming layers; the
    solver/streaming rules skip silently on serving snapshots and vice
    versa, so one pack works for every snapshot source.
    """
    return [
        HealthRule(
            name="recovery-rate",
            kind="ratio",
            selector="counter:recovery.*",
            denominator="counter:eigsh.calls",
            max_value=0.05,
            severity="critical",
            description="numerical-recovery events per eigensolver call; "
            "a surge means the failure policy is carrying the fit",
        ),
        HealthRule(
            name="service-rejection-rate",
            kind="ratio",
            selector="counter:serving.rejected",
            denominator="counter:serving.submitted",
            max_value=0.05,
            severity="critical",
            description="backpressure rejections per submitted request",
        ),
        HealthRule(
            name="serving-p99-latency",
            kind="threshold",
            selector="histogram:serving.request_seconds:p99",
            max_value=0.5,
            severity="warning",
            description="end-to-end request latency p99 (seconds)",
        ),
        HealthRule(
            name="drift-escalation-frequency",
            kind="ratio",
            selector="counter:streaming.action.partial_refit"
            "+counter:streaming.action.full_refit",
            denominator="counter:streaming.action.*",
            max_value=0.5,
            severity="warning",
            description="share of streaming batches escalating past the "
            "cheap fold-in (drift detectors firing too often)",
        ),
        HealthRule(
            name="weight-collapse",
            kind="threshold",
            selector="gauge:health.weight_entropy",
            min_value=0.05,
            severity="warning",
            description="normalized view-weight entropy; near zero means "
            "one view dominates the fused graph (learned-weight "
            "degeneracy)",
        ),
        HealthRule(
            name="eigengap-collapse",
            kind="threshold",
            selector="gauge:health.eigengap",
            min_value=1e-6,
            severity="warning",
            description="spectral gap behind the embedding; a vanishing "
            "gap makes the cluster count / rotation unstable",
        ),
    ]


def load_rules(path) -> list:
    """Read a rule list from a JSON file.

    Accepts either a bare list of rule objects or ``{"rules": [...]}``;
    each object carries the :meth:`HealthRule.to_dict` keys.

    Raises
    ------
    ValidationError
        Unreadable file, malformed JSON, or an invalid rule.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"cannot read rules file {path}: {exc}"
        ) from exc
    if isinstance(payload, dict):
        payload = payload.get("rules")
    if not isinstance(payload, list):
        raise ValidationError(
            f"{path} is not a rules file (expected a JSON list or a "
            f"{{'rules': [...]}} object)"
        )
    allowed = {
        "name", "kind", "selector", "denominator",
        "max_value", "min_value", "severity", "description",
    }
    rules = []
    for i, item in enumerate(payload):
        if not isinstance(item, dict):
            raise ValidationError(f"{path}: rule #{i} is not a JSON object")
        unknown = sorted(set(item) - allowed)
        if unknown:
            raise ValidationError(
                f"{path}: rule #{i} has unknown keys {unknown}"
            )
        rules.append(HealthRule(**item))
    if not rules:
        raise ValidationError(
            f"{path}: rules file contains no rules — an empty pack "
            "would make every health check vacuously pass"
        )
    return rules


class HealthMonitor:
    """Live rule evaluation over one registry.

    Keeps no state between :meth:`check` calls, so concurrent HTTP
    handler threads (the serving ``/healthz`` endpoint evaluates one per
    request) share it without a lock.
    """

    def __init__(self, registry, rules=None) -> None:
        self.registry = registry
        self.rules = list(rules) if rules is not None else default_rule_pack()

    def check(self) -> HealthReport:
        """Snapshot the registry and evaluate every rule against it."""
        return evaluate_rules(self.rules, self.registry.snapshot())
