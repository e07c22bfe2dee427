"""Streaming subsystem: fold-in, drift detection, stream generation."""

from __future__ import annotations

import json
import os
import pathlib
import shlex
import subprocess
import sys
from io import StringIO

import numpy as np
import pytest
import scipy.linalg

import repro
from repro.cli import main
from repro.core.anchor_model import DEFAULT_REFINE_ITERS, AnchorMVSC
from repro.core.weights import weight_entropy
from repro.datasets.scenarios import (
    StreamDrift,
    get_scenario,
    stream_batches,
)
from repro.exceptions import ValidationError
from repro.metrics import adjusted_rand_index
from repro.observability import Trace, use_trace
from repro.serving import ModelArtifact
from repro.streaming import (
    BatchRecord,
    DriftDecision,
    ObjectiveShiftDetector,
    StreamingMVSC,
    ViewWeightShiftDetector,
    worst_decision,
)

#: The deterministic drifted stream the integration tests share: the
#: shift batch is a documented contract (the detector must fire there,
#: and only there).
SHIFT_BATCH = 5


def _drifted_stream(n_batches=8, batch_size=150, seed=0):
    """The shared test stream; short streams simply end before the shift."""
    scenario = get_scenario("confused_pairs").with_size(batch_size)
    drift = (
        StreamDrift(at_batch=SHIFT_BATCH, mean_shift=4.0, imbalance=5.0)
        if SHIFT_BATCH < n_batches
        else None
    )
    return scenario, stream_batches(
        scenario, n_batches, drift=drift, random_state=seed
    )


def _stats(index=1, objective=1.0, batch_cost=1.0, weights=(0.5, 0.5)):
    return BatchRecord(
        batch_index=index,
        n_new=50,
        n_total=50 * (index + 1),
        objective=objective,
        batch_cost=batch_cost,
        view_weights=tuple(weights),
    )


class TestStreamBatches:
    def test_deterministic(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        a = stream_batches(scenario, 3, random_state=1)
        b = stream_batches(scenario, 3, random_state=1)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.labels, bb.labels)
            for va, vb in zip(ba.views, bb.views):
                np.testing.assert_array_equal(va, vb)

    def test_shapes_and_flags(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        drift = StreamDrift(at_batch=2, mean_shift=2.0)
        batches = stream_batches(scenario, 4, drift=drift, random_state=0)
        assert [b.index for b in batches] == [0, 1, 2, 3]
        assert [b.drifted for b in batches] == [False, False, True, True]
        for b in batches:
            assert b.n_samples == 60
            assert len(b.views) == scenario.n_views
            assert all(v.shape[0] == 60 for v in b.views)
            assert b.labels.shape == (60,)

    def test_disabling_drift_keeps_predrift_batches_bit_identical(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        drift = StreamDrift(at_batch=2, mean_shift=3.0)
        with_drift = stream_batches(scenario, 4, drift=drift, random_state=0)
        without = stream_batches(scenario, 4, random_state=0)
        for i in range(2):
            for va, vb in zip(with_drift[i].views, without[i].views):
                np.testing.assert_array_equal(va, vb)
        assert any(
            not np.array_equal(va, vb)
            for va, vb in zip(with_drift[2].views, without[2].views)
        )

    def test_imbalance_drift_changes_label_histogram(self):
        scenario = get_scenario("confused_pairs").with_size(120)
        drift = StreamDrift(at_batch=1, mean_shift=0.0, imbalance=6.0)
        batches = stream_batches(scenario, 2, drift=drift, random_state=0)
        before = np.bincount(batches[0].labels, minlength=scenario.n_clusters)
        after = np.bincount(batches[1].labels, minlength=scenario.n_clusters)
        assert np.ptp(before) < np.ptp(after)

    def test_rejects_unstreamable_scenarios(self):
        with pytest.raises(ValidationError, match="stream"):
            stream_batches("missing_views", 3)

    def test_validates_drift_and_counts(self):
        scenario = get_scenario("confused_pairs").with_size(60)
        with pytest.raises(ValidationError):
            stream_batches(scenario, 0)
        with pytest.raises(ValidationError, match="at_batch"):
            stream_batches(
                scenario, 3, drift=StreamDrift(at_batch=3, mean_shift=1.0)
            )
        with pytest.raises(ValidationError):
            StreamDrift(at_batch=0, mean_shift=1.0)
        with pytest.raises(ValidationError):
            StreamDrift(at_batch=1, mean_shift=-1.0)
        with pytest.raises(ValidationError):
            StreamDrift(at_batch=1, imbalance=0.5)


class TestPartialFit:
    def test_first_call_equals_fit_predict(self):
        _, batches = _drifted_stream(n_batches=1, batch_size=80)
        a = AnchorMVSC(4, random_state=0).fit_predict(batches[0].views)
        model = AnchorMVSC(4, random_state=0)
        b = model.partial_fit(batches[0].views)
        np.testing.assert_array_equal(a, b)

    def test_determinism_across_replays(self):
        _, batches = _drifted_stream(n_batches=3, batch_size=80)

        def replay():
            model = AnchorMVSC(4, random_state=0)
            for batch in batches:
                labels = model.partial_fit(batch.views)
            return labels

        np.testing.assert_array_equal(replay(), replay())

    def test_fold_in_tracks_full_fit(self):
        scenario, batches = _drifted_stream(n_batches=3, batch_size=100)
        truth = np.concatenate([b.labels for b in batches])
        model = AnchorMVSC(scenario.n_clusters, random_state=0)
        for batch in batches:
            stream_labels = model.partial_fit(batch.views)
        union = [
            np.vstack([b.views[v] for b in batches])
            for v in range(scenario.n_views)
        ]
        full_labels = AnchorMVSC(
            scenario.n_clusters, random_state=0
        ).fit_predict(union)
        ari_stream = adjusted_rand_index(truth, stream_labels)
        ari_full = adjusted_rand_index(truth, full_labels)
        # Documented tolerance: the cheap fold-in may trail a cold fit
        # on the union by at most 0.1 ARI on this stationary prefix.
        assert ari_stream >= ari_full - 0.1

    def test_state_grows_and_labels_cover_stream(self):
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        assert model.n_seen_ == 60
        labels = model.partial_fit(batches[1].views)
        assert model.n_seen_ == 120
        assert labels.shape == (120,)
        assert model.labels_.shape == (120,)

    def test_fold_in_embeds_once_per_weight_vector(self, monkeypatch):
        import repro.core.anchor_model as anchor_model

        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        calls = []
        solve = anchor_model.gram_top_eigenpairs

        def counted(gram, n_pairs, warm=None):
            calls.append(gram.shape)
            return solve(gram, n_pairs, warm)

        monkeypatch.setattr(anchor_model, "gram_top_eigenpairs", counted)
        model.partial_fit(batches[1].views, refine_iters=2)
        # Warm start under the carried-over weights (reused by the first
        # refinement's F-step), then one solve under the updated weights.
        assert len(calls) == 2
        assert model.n_iter_ == 2

    def test_stationary_fold_ins_solve_warm(self, monkeypatch):
        # The streaming benchmark's shape: a cold fit on 2000 clean rows,
        # then 33 fold-ins of 20 rows, each small next to the rows seen.
        scenario = get_scenario("clean").with_size(20)
        batches = stream_batches(scenario, 133, random_state=0)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(
            [np.vstack([b.views[v] for b in batches[:100]]) for v in range(3)]
        )
        dense = []
        solve = scipy.linalg.eigh
        monkeypatch.setattr(
            scipy.linalg,
            "eigh",
            lambda *args, **kwargs: dense.append(1) or solve(*args, **kwargs),
        )
        trace = Trace("stationary")
        with use_trace(trace):
            for batch in batches[100:]:
                model.partial_fit(batch.views)
        # Two F-steps per fold-in (see above), each refining the
        # previous solve's basis; none reaches the dense eigensolver.
        assert not dense
        counters = trace.metrics.snapshot()["counters"]
        assert counters["anchor.gram.warm"] == 2 * 33
        assert "anchor.gram.dense" not in counters

    def test_partial_refit_and_refit(self):
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        for batch in batches:
            model.partial_fit(batch.views)
        partial = model.partial_refit()
        assert partial.shape == (120,)
        full = model.refit()
        assert full.shape == (120,)
        # A full refit re-selects anchors on everything seen, so it must
        # agree with a cold fit on the union bit-for-bit.
        union = [
            np.vstack([b.views[v] for b in batches]) for v in range(3)
        ]
        cold = AnchorMVSC(4, random_state=0)
        # refit() reuses the model's own rng state, so compare structure
        # rather than bits: same partition quality on the union.
        assert adjusted_rand_index(cold.fit_predict(union), full) > 0.4

    def test_validation(self):
        model = AnchorMVSC(4, random_state=0)
        with pytest.raises(ValidationError):
            model.partial_refit()
        with pytest.raises(ValidationError):
            model.refit()
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model.partial_fit(batches[0].views)
        with pytest.raises(ValidationError):
            model.partial_fit(batches[1].views, refine_iters=0)
        with pytest.raises(ValidationError):
            model.partial_fit(batches[1].views[:2])
        bad = [v[:, :-1] for v in batches[1].views]
        with pytest.raises(ValidationError):
            model.partial_fit(bad)


class TestDriftDetectors:
    def test_objective_seeds_then_fires_on_shift(self):
        det = ObjectiveShiftDetector(threshold=0.25, cooldown=0)
        assert det.update(_stats(batch_cost=1.0)).action == "fold_in"
        assert det.update(_stats(batch_cost=1.01)).action == "fold_in"
        decision = det.update(_stats(batch_cost=1.4))
        assert decision.action == "partial_refit"
        assert decision.severity > 0.25

    def test_objective_full_refit_above_twice_threshold(self):
        det = ObjectiveShiftDetector(threshold=0.25, cooldown=0)
        det.update(_stats(batch_cost=1.0))
        assert det.update(_stats(batch_cost=3.0)).action == "full_refit"

    def test_quiet_on_stationary(self):
        det = ObjectiveShiftDetector(threshold=0.25)
        rng = np.random.default_rng(0)
        for i in range(20):
            value = 1.0 + 0.02 * rng.standard_normal()
            assert det.update(_stats(index=i, batch_cost=value)).action == (
                "fold_in"
            )

    def test_cooldown_and_hysteresis(self):
        det = ObjectiveShiftDetector(
            threshold=0.25, cooldown=2, hysteresis=0.5
        )
        det.update(_stats(batch_cost=1.0))
        assert det.update(_stats(batch_cost=1.5)).action == "partial_refit"
        # Cooldown: two quiet batches even though severity stays high.
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        # Past cooldown the alarm is still latched (severity above
        # hysteresis * threshold), so it must not re-fire.
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        # Severity collapses below the re-arm level -> alarm clears ...
        assert det.update(_stats(batch_cost=1.02)).action == "fold_in"
        # ... and a fresh shift fires again.
        assert det.update(_stats(batch_cost=1.5)).action == "partial_refit"

    def test_notify_refit_reseeds_baseline(self):
        det = ObjectiveShiftDetector(threshold=0.25, cooldown=0)
        det.update(_stats(batch_cost=1.0))
        det.update(_stats(batch_cost=1.5))
        det.notify_refit()
        # Post-refit regime becomes the new baseline: 1.5 is now normal.
        assert det.update(_stats(batch_cost=1.5)).action == "fold_in"
        assert det.update(_stats(batch_cost=1.55)).action == "fold_in"

    def test_weight_detector_fires_on_weight_flip(self):
        det = ViewWeightShiftDetector(threshold=0.15, cooldown=0)
        assert det.update(_stats(weights=(0.8, 0.2))).action == "fold_in"
        assert det.update(_stats(weights=(0.79, 0.21))).action == "fold_in"
        decision = det.update(_stats(weights=(0.2, 0.8)))
        assert decision.action == "full_refit"
        assert decision.severity == pytest.approx(0.6)

    @pytest.mark.parametrize(
        "detector, knobs",
        [
            (ObjectiveShiftDetector, {"threshold": 0.0}),
            (ObjectiveShiftDetector, {"hysteresis": 1.5}),
            (ObjectiveShiftDetector, {"cooldown": -1}),
            (ObjectiveShiftDetector, {"window": 0}),
            (ViewWeightShiftDetector, {"threshold": -0.1}),
            (ViewWeightShiftDetector, {"hysteresis": -0.5}),
        ],
        ids=lambda value: next(iter(value)) if isinstance(value, dict) else value.name,
    )
    def test_knobs_validated_on_the_detector(self, detector, knobs):
        with pytest.raises(ValidationError, match=next(iter(knobs))):
            detector(**knobs)

    def test_worst_decision_orders_by_rank_then_severity(self):
        fold = DriftDecision("fold_in", 0.9)
        partial = DriftDecision("partial_refit", 0.3)
        full = DriftDecision("full_refit", 0.1)
        assert worst_decision([fold, partial]).action == "partial_refit"
        assert worst_decision([partial, full]).action == "full_refit"
        assert worst_decision([]).action == "fold_in"

    def test_decision_validates_action(self):
        with pytest.raises(ValidationError):
            DriftDecision("retrain_everything")


class TestStreamingMVSC:
    def test_fires_exactly_at_injected_shift(self):
        scenario, batches = _drifted_stream()
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        actions = [r.action for r in streamer.history]
        assert actions[0] == "fit"
        assert actions[SHIFT_BATCH] in ("partial_refit", "full_refit")
        for i, action in enumerate(actions[1:], start=1):
            if i != SHIFT_BATCH:
                assert action == "fold_in", f"unexpected {action} at {i}"
        assert {e.batch_index for e in streamer.events} == {SHIFT_BATCH}

    def test_stationary_stream_stays_on_fold_in(self):
        scenario = get_scenario("confused_pairs").with_size(100)
        batches = stream_batches(scenario, 5, random_state=0)
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        assert [r.action for r in streamer.history][1:] == ["fold_in"] * 4
        assert streamer.events == []

    def test_weight_entropy_gauge_tracks_the_model_after_a_refit(self):
        # A refit replaces the fold-in's weights; the gauge must describe
        # the weights the model ends the batch with.
        scenario, batches = _drifted_stream()
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        with use_trace(Trace("stream")) as trace:
            for batch in batches:
                streamer.partial_fit(batch.views)
                gauge = trace.metrics.gauge("health.weight_entropy").value
                assert gauge == weight_entropy(streamer.model.view_weights_)
        assert streamer.history[SHIFT_BATCH].action == "partial_refit"

    def test_detectors_off(self):
        scenario, batches = _drifted_stream(n_batches=6, batch_size=80)
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0), detectors=()
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        assert [r.action for r in streamer.history][1:] == ["fold_in"] * 5

    def test_records_are_json_ready(self):
        scenario, batches = _drifted_stream(n_batches=2, batch_size=60)
        streamer = StreamingMVSC(
            AnchorMVSC(scenario.n_clusters, random_state=0)
        )
        for batch in batches:
            streamer.partial_fit(batch.views)
        payload = json.dumps([r.to_dict() for r in streamer.history])
        rows = json.loads(payload)
        assert rows[0]["action"] == "fit"
        assert rows[1]["n_total"] == 120

    def test_rejects_non_anchor_model(self):
        with pytest.raises(ValidationError):
            StreamingMVSC(object())


class TestStreamingArtifacts:
    def test_artifact_carries_anchor_extras(self, tmp_path):
        _, batches = _drifted_stream(n_batches=2, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        for batch in batches:
            model.partial_fit(batch.views)
        artifact = model.to_artifact()
        assert set(artifact.extras) == {
            f"anchors_view_{i}" for i in range(3)
        }
        for i, anchors in enumerate(model.anchors_):
            np.testing.assert_array_equal(
                artifact.extras[f"anchors_view_{i}"], anchors
            )
        assert artifact.config.get("anchor_seed") == 0
        manifest = artifact.manifest()
        assert set(manifest["extras"]) == set(artifact.extras)

    def test_extras_roundtrip_in_fresh_process(self, tmp_path):
        _, batches = _drifted_stream(n_batches=1, batch_size=60)
        model = AnchorMVSC(4, random_state=0)
        model.partial_fit(batches[0].views)
        model.save(tmp_path / "art")
        script = (
            "import sys, numpy as np\n"
            "from repro.serving import ModelArtifact\n"
            "art = ModelArtifact.load(sys.argv[1])\n"
            "np.savez(sys.argv[2], **art.extras)\n"
        )
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(tmp_path / "art"),
                str(tmp_path / "extras.npz"),
            ],
            check=True,
            env=env,
        )
        with np.load(tmp_path / "extras.npz") as data:
            assert set(data.files) == {
                f"anchors_view_{i}" for i in range(3)
            }
            for i, anchors in enumerate(model.anchors_):
                np.testing.assert_array_equal(
                    data[f"anchors_view_{i}"], anchors
                )

    def test_artifacts_without_extras_still_load(self, tmp_path):
        artifact = ModelArtifact(
            model_class="AnchorMVSC",
            train_views=[np.eye(6), np.eye(6) * 2.0],
            train_labels=np.array([0, 0, 1, 1, 2, 2], dtype=np.int64),
            view_weights=np.array([0.5, 0.5]),
            n_clusters=3,
        )
        artifact.save(tmp_path)
        manifest = artifact.manifest()
        assert "extras" not in manifest
        loaded = ModelArtifact.load(tmp_path)
        assert loaded.extras == {}
        assert loaded.content_hash() == artifact.content_hash()


class TestStreamCLI:
    def test_stream_quick_runs(self, tmp_path):
        out = StringIO()
        code = main(
            [
                "stream",
                "confused_pairs",
                "--quick",
                "--seed",
                "0",
                "--json",
                str(tmp_path / "stream.json"),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "fold_in" in text
        assert "total" in text
        payload = json.loads((tmp_path / "stream.json").read_text())
        assert len(payload["records"]) == payload["n_batches"]
        assert {"acc", "nmi", "ari"} <= set(payload["records"][0])

    def test_quick_replays_the_tracked_stream_sizes(self, tmp_path):
        from repro.bench import stream_workload

        stream = stream_workload(quick=True)
        path = tmp_path / "stream.json"
        args = ["stream", "confused_pairs", "--quick", "--json", str(path)]
        assert main(args, out=StringIO()) == 0
        payload = json.loads(path.read_text())
        assert payload["n_batches"] == stream["n_batches"]
        assert [r["n_new"] for r in payload["records"]] == (
            [stream["scenario"].n_samples] * stream["n_batches"]
        )

    def test_ci_smoke_replays_the_tracked_quick_stream(self):
        # CI's "Streaming replay smoke" step spells the tracked quick
        # stream's drift out as flags; hold them to stream_workload.
        from repro.bench import stream_workload
        from repro.cli import build_parser

        ci = pathlib.Path(repro.__file__).resolve().parents[2] / (
            ".github/workflows/ci.yml"
        )
        text = ci.read_text(encoding="utf-8").replace("\\\n", " ")
        (line,) = [x for x in text.splitlines() if "-m repro stream " in x]
        args = build_parser().parse_args(shlex.split(line)[3:])
        stream = stream_workload(quick=True)
        assert args.quick and args.scenario == stream["scenario"].name
        assert args.seed == stream["random_state"]
        drift = StreamDrift(
            args.drift_at, args.drift_mean_shift, args.drift_imbalance
        )
        assert drift == stream["drift"]

    def test_stream_with_drift_reports_detector(self):
        out = StringIO()
        code = main(
            [
                "stream",
                "confused_pairs",
                "--quick",
                "--drift-at",
                "2",
                "--drift-mean-shift",
                "4",
                "--seed",
                "0",
            ],
            out=out,
        )
        assert code == 0
        assert "objective_shift" in out.getvalue()

    def test_refine_iters_reaches_every_fold_in(self, monkeypatch):
        passed = []
        fold_in = AnchorMVSC._fold_in

        def spy(self, views_new, refine_iters):
            passed.append(refine_iters)
            return fold_in(self, views_new, refine_iters)

        monkeypatch.setattr(AnchorMVSC, "_fold_in", spy)
        args = ["stream", "confused_pairs", "--quick", "--seed", "0"]
        assert main([*args, "--refine-iters", "1"], out=StringIO()) == 0
        assert passed == [1, 1, 1]
        passed.clear()
        assert main(args, out=StringIO()) == 0
        assert passed == [DEFAULT_REFINE_ITERS] * 3

    def test_stream_rejects_bad_drift_batch(self):
        with pytest.raises(ValidationError, match="at_batch"):
            main(
                [
                    "stream",
                    "confused_pairs",
                    "--quick",
                    "--drift-at",
                    "9",
                ],
                out=StringIO(),
            )
