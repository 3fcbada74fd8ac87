"""The shipped cascade: one training recipe for the CLI and the daemon.

The nano detector is trained on one synthetic 256 px split and its
margin calibration fitted on a held-out 256 px split; the cheapest
model scouts in front of the full four-model ensemble.  ``repro
survey --cascade``, ``repro cascade`` and the service daemon's first
cascade job all build it here, so they serve the same tier 0.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..artifacts import ArtifactCache
from ..gsv.api import UsageMeter
from ..llm.base import ChatClient
from .calibrate import load_or_fit_calibration
from .router import CascadeClassifier


def build_default_cascade(
    clients: Mapping[str, ChatClient] | None = None,
    *,
    artifacts: ArtifactCache | None = None,
    threshold: float | None = None,
    precision: str | None = None,
    meter: UsageMeter | None = None,
) -> CascadeClassifier:
    """Train, calibrate and wire the default three-tier cascade.

    ``clients`` maps every model id to its chat client; the default
    calibrates all four simulated models on the holdout scenes.
    ``artifacts`` caches the trained weights and the fitted curves.
    ``threshold``, ``precision`` and ``meter`` override the router's
    defaults when given.
    """
    from ..core.classifier import LLMIndicatorClassifier
    from ..core.voting import VotingEnsemble
    from ..detect.train import TrainConfig, train_detector
    from ..gsv.dataset import build_survey_dataset
    from ..llm.paper_targets import ALL_MODEL_IDS, GPT_4O_MINI
    from ..llm.registry import build_clients

    train_images = build_survey_dataset(n_images=160, size=256, seed=21)
    holdout = build_survey_dataset(n_images=120, size=256, seed=33)
    detector = train_detector(
        train_images,
        train_config=TrainConfig(epochs=12, batch_size=16),
        cache=artifacts,
    ).model
    calibration = load_or_fit_calibration(artifacts, detector, holdout)
    if clients is None:
        clients = build_clients(
            [image.scene for image in holdout], model_ids=ALL_MODEL_IDS
        )
    options: dict = {
        name: value
        for name, value in (
            ("threshold", threshold),
            ("precision", precision),
            ("meter", meter),
        )
        if value is not None
    }
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
        **options,
    )
