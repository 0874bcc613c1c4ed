"""Memory guards, measured with tracemalloc: dataset I/O works a block of
rows at a time, in any line form and field width, the likelihood scan
reuses two row buffers and the weight optimizer takes WEIGHT_LANES
transmissions at a time, so their working memory does not grow with the
dataset or the transmission grid. tracemalloc sees only its own process, so
the guards run on one worker."""

import tracemalloc

import numpy as np
import pytest

from lossyphase import workers
from lossyphase.bounds import WEIGHT_LANES, optimize_weights, precision_curve
from lossyphase.cli import ConfigError, read_dataset_csv, write_dataset_csv
from lossyphase.estimator import CHUNK_SERIES, estimate_dataset
from lossyphase.montecarlo import ExperimentConfig, ProbeKind, run_campaign

MiB = 2**20


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)


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


@pytest.mark.parametrize("newline, blank", [("\n", 0), ("\r\n", 3), ("\r", 0)], ids=["writer", "crlf-blank-lines", "cr"])
def test_read_transient(noon_csv, tmp_path, newline, blank):
    """Beyond the dataset it returns, the parser holds the file's bytes, the
    rows parsed so far as arrays and one block of lines, which a CRLF copy
    with blank lines rejoins in the writer's line form a block at a time;
    splitting every line at once takes 7.5 MiB beyond the dataset. A copy
    whose lines end in "\\r" alone is cut into blocks at those ends too:
    read as one block, it took 31 MiB."""
    dataset, path = noon_csv
    lines = path.read_text().splitlines()
    for at in range(1, len(lines), len(lines) // blank) if blank else ():
        lines.insert(at, "")
    path = tmp_path / "dataset.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    parsed, peak, kept = traced(read_dataset_csv, path, dataset.config)
    np.testing.assert_array_equal(parsed.counts, dataset.counts)
    assert peak - kept < 5 * MiB


@pytest.mark.parametrize("count, expected", [
    pytest.param("0" * 99_999 + "7", 7, id="zero-padded"),
    pytest.param("9" + "0" * 99_998 + "7", "line 6: series_id, a count or seed_used is out of range", id="past-int64"),
])
def test_wide_field_transient(tmp_path, count, expected):
    """An n_AA of 100,000 characters reads as its value, or is named out of
    range, holding a few copies of its line's bytes: an array of the field's
    width by the rows and fields would take 8 MiB for the 12 rows here."""
    dataset = noon_dataset(series=3, phases=(0.0, 0.04))
    path = tmp_path / "dataset.csv"
    write_dataset_csv(path, dataset)
    lines = path.read_text().splitlines()
    parts = lines[5].split(",")
    parts[5] = count
    lines[5] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")

    def read():
        try:
            return read_dataset_csv(path, dataset.config)
        except ConfigError as exc:
            return str(exc)

    result, peak, kept = traced(read)
    if isinstance(expected, str):
        assert result == f"{path}: {expected}"
    else:
        counts = dataset.counts.copy()
        counts[4, 0] = expected
        np.testing.assert_array_equal(result.counts, counts)
    assert peak - kept < MiB


def noon_dataset(series: int, phases=(0.0,), eta=0.361):
    config = ExperimentConfig(
        eta_list=(eta,), probe_kind=ProbeKind.NOON, phase_list=phases, series_count=series,
        events_per_series=200, master_seed=3,
    )
    return run_campaign(config)


def assert_estimate_peak_does_not_grow_with_series(eta):
    series = 4 * CHUNK_SERIES
    datasets = [noon_dataset(n, eta=eta) for n in (series, 2 * series)]
    estimate_dataset(datasets[0])  # a first call, so no one-time allocation counts in a peak
    peaks = [traced(estimate_dataset, dataset)[1] for dataset in datasets]
    assert peaks[1] - peaks[0] < 1024 * series
    assert max(peaks) < 2.5 * MiB


def test_estimate_peak_does_not_grow_with_series():
    """Doubling the series adds their counts and estimates, about 260 bytes
    a series, not their 25 KB likelihood rows; the scan itself stays within
    its two (CHUNK_SERIES, grid) buffers of 0.8 MB and the grid, which also
    hold the knot values and window bounds of the pruned scan."""
    assert_estimate_peak_does_not_grow_with_series(0.361)


def test_broad_likelihood_estimate_peak_does_not_grow_with_series():
    """At eta = 0.2 the likelihood of 200 events is broad, so the pruned scan
    keeps many windows of every series: it evaluates 52% of the grid, against
    38% at eta = 0.361 and 10-18% on the default campaigns. Its chunks at
    more columns still fit the same two buffers."""
    assert_estimate_peak_does_not_grow_with_series(0.2)


def test_precision_curve_peak_does_not_grow_with_etas():
    """The peak over 512 etas, eight blocks of lanes, exceeds that over 64,
    one block, by less than the 512 points returned: the blocks run one
    after another."""
    precision_curve([0.5])
    runs = [traced(precision_curve, np.linspace(0.05, 1.0, n)) for n in (WEIGHT_LANES, 8 * WEIGHT_LANES)]
    (_, peak_one, _), (points, peak_eight, kept_eight) = runs
    assert len(points) == 8 * WEIGHT_LANES
    assert peak_eight - peak_one < kept_eight


def test_tiny_eta_block_peak():
    """At tiny eta about 80 cells a lane survive the first level, against 2
    to 33 above 0.05; the kept cells are refined a chunk of lanes at a time.
    The block peaks at about 5.4 MiB, in the refinement."""
    etas = np.geomspace(1e-20, 1e-3, WEIGHT_LANES)
    weights, peak, _ = traced(optimize_weights, etas)
    assert len(weights) == WEIGHT_LANES
    assert peak < 8 * MiB


def test_weight_block_peak():
    """The first level of a block of lanes is evaluated 16 lanes at a time:
    its (64, 861) arrays over all lanes at once peaked at 6.0 MiB, where the
    block now peaks at about 2.2 MiB."""
    optimize_weights([0.5])
    weights, peak, _ = traced(optimize_weights, np.linspace(0.05, 1.0, WEIGHT_LANES))
    assert len(weights) == WEIGHT_LANES
    assert peak < 3 * MiB
