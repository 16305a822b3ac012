"""The batched reductions the step uses give the bits of their per-slice forms.

``combined_decay`` takes each run's per-tensor sums and squared norms from one
``(count, size)`` view, and ``row_norms`` / ``mean_all_but_first`` write out
the arithmetic of ``np.linalg.norm(..., axis=1)`` and ``np.mean(..., axis=1)``.
That each batched form matches its per-slice form bit for bit is an
observation on the numpy build these tests run on, not a guarantee numpy
documents: a numpy or BLAS that sums in another order would break it, and
these tests (and the goldens) are where that would show.
"""

import numpy as np
import pytest

from optlab import mean_all_but_first, row_norms

CASES = 320


def rows_case(rng, i):
    """A ``(count, size)`` float64 array: rows of up to 70k values, scales from
    1e-150 to 1e150, with zeros, -0.0 and subnormals mixed in by case."""
    size = int(rng.choice([1, 2, 3, 4, 7, 16, 20, 64, 255, 256, 1000, 4099, 70_000]))
    count = int(rng.integers(1, 4 if size >= 4099 else 17))
    rows = rng.standard_normal((count, size)) * 10.0 ** rng.uniform(-150, 150, size=(count, 1))
    kind = i % 5
    if kind == 1:
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[0] = -0.0
    elif kind == 2:
        rows *= 1e-310 / np.abs(rows).max()  # every value subnormal or zero
    elif kind == 3:
        rows[:, ::3] = rng.standard_normal(rows[:, ::3].shape) * 1e-320
    elif kind == 4:
        rows = rng.standard_normal((count, size)) * 10.0 ** rng.uniform(-150, 150, (count, size))
    return rows


def cases():
    rng = np.random.default_rng(2106)
    return [rows_case(rng, i) for i in range(CASES)]


@pytest.fixture(scope="module")
def all_rows():
    return cases()


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_row_sums_match_each_rows_sum(all_rows):
    for rows in all_rows:
        assert same_bits(rows.sum(axis=1), [r.sum() for r in rows])


def test_batched_dot_matches_np_dot(all_rows):
    for rows in all_rows:
        assert same_bits(np.vecdot(rows, rows), [np.dot(r, r) for r in rows])


def test_row_norms_match_linalg_norm(all_rows):
    for rows in all_rows:
        expected = np.linalg.norm(rows, axis=1)
        assert same_bits(np.sqrt((rows * rows).sum(axis=1)), expected)
        assert same_bits(row_norms(rows), expected)


def test_row_means_match_np_mean(all_rows):
    for rows in all_rows:
        expected = rows.mean(axis=1)
        assert same_bits(rows.sum(axis=1) / rows.shape[1], expected)
        assert same_bits(mean_all_but_first(rows), expected)
