"""The benchmark's tracer (``perfbench/tracer.py``) wraps lossyphase functions
by name and reads the sizes of their results; a rename or a changed result
type in ``src/`` must fail here, not silently in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lossyphase.detection import OutcomeModel
from lossyphase.estimator import estimate_dataset, likelihood_grid
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import ExperimentConfig, ProbeKind, probe_designs, run_campaign, setting_models

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"lossyphase.{module_name}")
        for name in names:
            target = module
            for part in name.split("."):
                target = getattr(target, part, None)
            assert callable(target), f"lossyphase.{module_name}.{name} no longer exists"


def test_counters_read_rows_and_series():
    config = ExperimentConfig(
        eta_list=(0.361,), probe_kind=ProbeKind.NOON, phase_list=(0.0, 0.04), series_count=3, events_per_series=80
    )
    dataset = run_campaign(config)
    estimates = estimate_dataset(dataset)
    rows, series = 1 * 2 * 3 * 2, 1 * 2 * 3  # etas x phases x series (x settings)
    assert len(dataset.records) == len(dataset.series_id) == rows
    assert len(estimates) == series
    [design] = probe_designs(ProbeKind.NOON, [0.361], ImperfectionParams())
    grid = likelihood_grid(setting_models(0.361, ImperfectionParams(), design))
    kept = sum(len(labels) for labels in grid.labels.values())
    tracer = load_tracer().Tracer()
    tracer._after_run_campaign(dataset)
    tracer._after_likelihood_grid(grid)
    tracer._after_estimate_dataset(estimates)
    assert tracer.counters["montecarlo.records"] == rows
    assert tracer.counters["estimator.series"] == series
    assert tracer.counters["estimator.loglik_flops"] == 2 * series * kept * len(grid.phis) > 0


@pytest.mark.parametrize("params", [ImperfectionParams(), ImperfectionParams(lambda_hom=0.95, v_classical=0.97)])
@pytest.mark.parametrize("kind", list(ProbeKind))
def test_every_model_is_an_outcome_model(kind, params):
    """The tracer's ``detection.OutcomeModel.probabilities`` counter sees every
    probability evaluation only while no other model type exists."""
    for model in setting_models(0.361, params, probe_designs(kind, [0.361], params)[0]).values():
        assert type(model) is OutcomeModel
