"""Memory guards, measured with tracemalloc: dataset I/O works a block of
rows at a time and the likelihood scan reuses two row buffers, so their
working memory does not grow with the dataset."""

import tracemalloc

import numpy as np
import pytest

from lossyphase.cli import read_dataset_csv, write_dataset_csv
from lossyphase.estimator import CHUNK_SERIES, estimate_dataset
from lossyphase.montecarlo import ExperimentConfig, ProbeKind, run_campaign

MiB = 2**20


def traced(fn, *args):
    """``fn(*args)``, the peak of the memory it allocated and the part of it
    still allocated when it returned, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - base, kept - base


@pytest.fixture(scope="module")
def noon_csv(tmp_path_factory):
    """The dataset CSV of the default N00N campaign: 4 eta x 15 phases x 300
    series x 2 settings."""
    dataset = run_campaign(ExperimentConfig(probe_kind=ProbeKind.NOON, master_seed=0))
    assert len(dataset.series_id) == 36_000
    path = tmp_path_factory.mktemp("noon") / "dataset.csv"
    write_dataset_csv(path, dataset)
    return dataset, path


def test_write_peak(noon_csv, tmp_path):
    """Rows become Python numbers and text a block at a time; formatting
    every row at once peaks at 10 MiB."""
    dataset, path = noon_csv
    _, peak, _ = traced(write_dataset_csv, tmp_path / "dataset.csv", dataset)
    assert (tmp_path / "dataset.csv").read_bytes() == path.read_bytes()
    assert peak < 3 * MiB


def test_read_transient(noon_csv):
    """Beyond the dataset it returns, the parser holds the file's text, the
    rows parsed so far as arrays and one block of lines; splitting every
    line at once takes 7.5 MiB beyond the dataset."""
    dataset, path = noon_csv
    parsed, peak, kept = traced(read_dataset_csv, path, dataset.config)
    np.testing.assert_array_equal(parsed.counts, dataset.counts)
    assert peak - kept < 5 * MiB


def noon_dataset(series: int):
    config = ExperimentConfig(
        eta_list=(0.361,), probe_kind=ProbeKind.NOON, phase_list=(0.0,), series_count=series,
        events_per_series=200, master_seed=3,
    )
    return run_campaign(config)


def test_estimate_peak_does_not_grow_with_series():
    """Doubling the series adds their counts and estimates, about 260 bytes
    a series, not their 25 KB likelihood rows; the scan itself stays within
    its two (CHUNK_SERIES, grid) buffers of 0.8 MB and the grid."""
    series = 4 * CHUNK_SERIES
    datasets = [noon_dataset(n) for n in (series, 2 * series)]
    estimate_dataset(datasets[0])  # fills the per-process design cache
    peaks = [traced(estimate_dataset, dataset)[1] for dataset in datasets]
    assert peaks[1] - peaks[0] < 1024 * series
    assert max(peaks) < 2.5 * MiB
