"""Helpers that no command runs, kept as test oracles: the config parser
without a file, and the distinguishability mixture written out per label."""

from lossyphase.cli import _assemble, _read_config
from lossyphase.detection import LABELS


def parse_config(text: str) -> tuple[dict, bool]:
    """Parse key=value configuration text into run_campaign keyword arguments
    plus the include_cc estimation toggle."""
    return _assemble(_read_config(text))


def degrade_distribution(ideal: dict[str, float], distinguishable: dict[str, float], lambda_hom: float) -> dict[str, float]:
    """Convex mixture of the interfering and classically-routed distributions."""
    if not 0.0 <= lambda_hom <= 1.0:
        raise ValueError(f"lambda_hom must be in [0, 1], got {lambda_hom}")
    for name, dist in (("ideal", ideal), ("distinguishable", distinguishable)):
        total = sum(dist.get(label, 0.0) for label in LABELS)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"{name} distribution is not normalized (sum {total})")
    return {
        label: lambda_hom * ideal.get(label, 0.0) + (1.0 - lambda_hom) * distinguishable.get(label, 0.0)
        for label in LABELS
    }
