"""Tier 0 serves the detector at the pixel size it was trained on.

The detector records its training images' ``size`` as
``input_size``; the cascade router and the margin calibration both
render through :meth:`NanoDetector.render_inputs`, so a 640 px survey
capture reaches the detector as the same 256 px frame it was fitted
and calibrated on.  The size is part of the detector's identity:
persisted with it, and in both the model fingerprint and the weights
cache key.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.artifacts import ArtifactCache, model_fingerprint
from repro.cascade import CascadeClassifier, fit_cascade_calibration
from repro.cascade.calibrate import extract_peaks
from repro.core.classifier import LLMIndicatorClassifier
from repro.core.voting import VotingEnsemble
from repro.detect.model import ModelConfig, NanoDetector
from repro.detect.train import (
    TrainConfig,
    _incremental_base_key,
    _weights_key,
    build_training_tensors,
    train_detector,
)
from repro.gsv import build_survey_dataset
from repro.llm.paper_targets import GPT_4O_MINI

TINY = TrainConfig(epochs=2, batch_size=8)


@pytest.fixture(scope="module")
def train_images():
    return build_survey_dataset(n_images=16, size=256, seed=91)


@pytest.fixture(scope="module")
def detector(train_images):
    return train_detector(train_images, train_config=TINY).model


@pytest.fixture(scope="module")
def calibration(detector, train_images):
    return fit_cascade_calibration(detector, train_images)


def _cascade(clients, detector, calibration, **kwargs) -> CascadeClassifier:
    return CascadeClassifier(
        detector=detector,
        calibration=calibration,
        scout=LLMIndicatorClassifier(clients[GPT_4O_MINI]),
        ensemble=VotingEnsemble(
            classifiers={
                model_id: LLMIndicatorClassifier(client)
                for model_id, client in clients.items()
            }
        ),
        **kwargs,
    )


class TestTrainingRecordsInputSize:
    def test_detector_carries_its_training_size(self, detector):
        assert detector.input_size == 256

    def test_mixed_training_sizes_raise(self, train_images):
        mixed = [
            *train_images[:2],
            dataclasses.replace(train_images[2], size=640),
        ]
        with pytest.raises(ValueError, match="one pixel size"):
            train_detector(mixed, train_config=TINY)

    def test_bare_tensors_leave_it_unset(self, train_images):
        tensors = build_training_tensors(train_images[:4], 16)
        model = train_detector(
            [], precomputed=tensors, train_config=TINY
        ).model
        assert model.input_size is None


class TestPersistence:
    def test_round_trip_keeps_input_size(self, detector):
        restored = NanoDetector.from_dict(detector.to_dict())
        assert restored.input_size == 256
        assert model_fingerprint(restored) == model_fingerprint(detector)

    def test_legacy_payload_loads_as_unset(self, detector):
        payload = detector.to_dict()
        del payload["input_size"]
        assert NanoDetector.from_dict(payload).input_size is None

    def test_fingerprint_tracks_input_size(self, detector):
        resized = dataclasses.replace(detector, input_size=640)
        unset = dataclasses.replace(detector, input_size=None)
        prints = {
            model_fingerprint(model) for model in (detector, resized, unset)
        }
        assert len(prints) == 3

    def test_weights_key_tracks_input_size(self, detector, train_images):
        tensors = build_training_tensors(train_images[:4], 16)
        keys = {
            _weights_key(*tensors, detector.config, TINY, size)
            for size in (256, 640, None)
        }
        assert len(keys) == 3

    def test_cached_weights_are_not_served_at_another_size(
        self, train_images, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        images = train_images[:4]
        tensors = build_training_tensors(
            images, 16, feature_config=ModelConfig().feature_config
        )
        first = train_detector(images, train_config=TINY, cache=cache)
        again = train_detector(
            images, precomputed=tensors, train_config=TINY, cache=cache
        )
        assert (first.mode, again.mode) == ("full", "cached")
        assert again.model.input_size == 256
        # The same tensors without their images: the size is unknown,
        # so the 256 px entry must not be reused.
        bare = train_detector(
            [], precomputed=tensors, train_config=TINY, cache=cache
        )
        assert bare.mode == "full"
        assert bare.model.input_size is None


    def test_legacy_incremental_base_is_not_fine_tuned(
        self, train_images, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        train_detector(
            train_images[:8], train_config=TINY, cache=cache, incremental=True
        )
        # Strip the size from the incremental base, as a base written
        # before detectors recorded it would be.
        key = _incremental_base_key(ModelConfig(), TINY)
        base = cache.get_json("models", key)
        del base["model"]["input_size"]
        cache.put_json("models", key, base)
        changed = [*train_images[:7], train_images[8]]
        result = train_detector(
            changed, train_config=TINY, cache=cache, incremental=True
        )
        assert result.mode == "full"
        assert result.model.input_size == 256


class TestServedFrames:
    @pytest.fixture()
    def frames(self, monkeypatch):
        shapes: list[tuple[int, ...]] = []
        original = NanoDetector.predict_cells_batch

        def spy(self, images, *args, **kwargs):
            shapes.extend(np.asarray(image).shape for image in images)
            return original(self, images, *args, **kwargs)

        monkeypatch.setattr(NanoDetector, "predict_cells_batch", spy)
        return shapes

    def test_router_and_calibration_render_at_input_size(
        self, frames, clients, detector, calibration
    ):
        captures = build_survey_dataset(n_images=4, seed=45)
        assert {image.size for image in captures} == {640}
        cascade = _cascade(clients, detector, calibration, threshold=0.5)
        cascade.predict_location(captures)
        extract_peaks(detector, captures)
        assert frames == [(256, 256, 3)] * 8

    def test_capture_size_does_not_change_answers(
        self, clients, detector, calibration
    ):
        served = build_survey_dataset(n_images=8, size=640, seed=45)
        trained = build_survey_dataset(n_images=8, size=256, seed=45)
        outcomes = []
        for images in (served, trained):
            cascade = _cascade(clients, detector, calibration)
            presences, degraded, skipped = cascade.predict_location(images)
            outcomes.append(
                (
                    [presence.present for presence in presences],
                    degraded,
                    skipped,
                    cascade.stats.snapshot(),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3]["images"] == 8
