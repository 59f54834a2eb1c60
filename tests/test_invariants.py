"""Bitwise invariants of the trial engine at a small block size: with
blocks and tiles of 64 sensors, multi-block trials, blocks of several
trials, partial tiles, pool tasks and trace segments cost microseconds,
so hypothesis can draw the shapes the full-size tests in test_engine.py
pick by hand. A pool runs only in the explicit workers=2 examples, of
two workers each."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditherfield import (AffineFloorDeployment, EstimatorConfig, FourierBasis,
                         SawtoothField, TruncationSchedule, TwoPointNoise,
                         UniformDeployment, UniformSymNoise, estimate_coefficients,
                         make_sobolev_field, simulate_batch, stream_keys)
from ditherfield import analysis, spectral
from ditherfield.analysis import TrialCell, as_error_trace, map_trials
from ditherfield.estimator import add_sensors, finish_estimates
from ditherfield.fields import FourierSums, synthesize, true_coefficients

from conftest import basis_sums, collect_trials, reference_batch

BLOCK = 64
INGREDIENTS = [(make_sobolev_field(1.0, seed=7, n_freqs=32), AffineFloorDeployment(nu=0.5),
                UniformSymNoise(b=1.0)),
               (SawtoothField(), UniformDeployment(), TwoPointNoise(b=0.7))]


@given(ingredients=st.sampled_from(INGREDIENTS),
       n=st.integers(min_value=1, max_value=6 * BLOCK), m=st.integers(min_value=1, max_value=64),
       trials=st.integers(min_value=1, max_value=5), start=st.integers(min_value=0),
       gridded=st.booleans(), seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
# three blocks summed on the direct path, and two-trial blocks on the gridded one
@example(ingredients=INGREDIENTS[0], n=3 * BLOCK + 5, m=9, trials=2,
         start=2 * BLOCK + 3, gridded=False, seed=5)
@example(ingredients=INGREDIENTS[0], n=BLOCK // 2, m=9, trials=3,
         start=7, gridded=True, seed=5)
@settings(max_examples=150, deadline=None)
def test_block_rows_and_tile_cuts_are_one_pass_of_one_trial(ingredients, n, m, trials,
                                                            start, gridded, seed):
    """On either type-1 path: a window of sensors from any start is that
    slice of the whole draw; the engine's rows (tiles of BLOCK sensors,
    blocks of BLOCK // n trials) equal, bit for bit, one pass over each
    trial alone; and one block of every trial, fed in two tiles cut at a
    whole block, gives those rows again."""
    field, deploy, noise = ingredients
    start %= n
    with mock.patch.object(spectral, "BLOCK_POINTS", BLOCK), \
            mock.patch.object(spectral, "_gridded", lambda n, K: gridded):
        keys = stream_keys(seed, [(0, t) for t in range(trials)])
        whole = simulate_batch(field, deploy, noise, n, keys)
        window = simulate_batch(field, deploy, noise, n - start, keys, start)
        for name in ("x", "y", "t", "bits"):
            assert np.array_equal(getattr(window, name), getattr(whole, name)[:, start:]), name

        rows = collect_trials([TrialCell(field, deploy, noise, n, m, trials)], seed)[0]
        cfg = EstimatorConfig(basis=FourierBasis(), density=deploy, c=whole.c,
                              schedule=TruncationSchedule.fixed(m))
        for t in range(trials):
            alone = reference_batch(field, deploy, noise, n, seed, (0, t))
            assert np.array_equal(rows[t], estimate_coefficients(alone, cfg, m).values), t

        cut = start - start % BLOCK
        sums = FourierSums(m, (trials,), n)
        for lo, hi in ((0, cut), (cut, n)):
            if hi > lo:
                add_sensors(sums, simulate_batch(field, deploy, noise, hi - lo, keys, lo), deploy)
        assert np.array_equal(finish_estimates(sums, whole.c).values, rows)


@given(ingredients=st.sampled_from(INGREDIENTS),
       shapes=st.lists(st.tuples(st.integers(min_value=1, max_value=3 * BLOCK),
                                 st.integers(min_value=1, max_value=16),
                                 st.integers(min_value=1, max_value=6)),
                       min_size=1, max_size=3),
       task_sensors=st.integers(min_value=1, max_value=8 * BLOCK), gridded=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1), workers=st.just(1))
# two workers take one-trial tasks on the direct path, and tasks of several
# trials and blocks on the gridded one
@example(ingredients=INGREDIENTS[0], shapes=[(BLOCK + 5, 9, 4), (3, 4, 6)],
         task_sensors=1, gridded=False, seed=11, workers=2)
@example(ingredients=INGREDIENTS[1], shapes=[(7, 16, 5), (2 * BLOCK, 3, 3)],
         task_sensors=3 * BLOCK, gridded=True, seed=12, workers=2)
@settings(max_examples=60, deadline=None)
def test_a_task_size_changes_no_row_and_no_take_order(ingredients, shapes, task_sensors,
                                                     gridded, seed, workers):
    """On either type-1 path, whatever TASK_SENSORS is, `take` sees cell
    after cell, each cell's trials in order, in chunks of
    max(1, TASK_SENSORS // n) trials, and every row is that of one task
    per cell."""
    field, deploy, noise = ingredients
    cells = [TrialCell(field, deploy, noise, n, m, trials)
             for n, m, trials in shapes]
    taken = []
    with mock.patch.object(spectral, "BLOCK_POINTS", BLOCK), \
            mock.patch.object(spectral, "_gridded", lambda n, K: gridded):
        whole = collect_trials(cells, seed)
        with mock.patch.object(analysis, "TASK_SENSORS", task_sensors):
            map_trials(cells, seed, lambda i, t0, rows: taken.append((i, t0, rows)),
                       workers=workers)
    order = [(i, t0) for i, cell in enumerate(cells)
             for t0 in range(0, cell.trials, max(1, task_sensors // cell.n))]
    assert [(i, t0) for i, t0, _ in taken] == order
    for i, t0, rows in taken:
        chunk = max(1, task_sensors // cells[i].n)
        assert np.array_equal(rows, whole[i][t0:t0 + chunk]), (i, t0)


@given(ingredients=st.sampled_from(INGREDIENTS),
       cuts=st.lists(st.integers(min_value=1, max_value=2 * BLOCK), min_size=1, max_size=3),
       psi=st.floats(min_value=0.2, max_value=0.8), gridded=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
# segments that start inside a tile and run across one and two tile edges
@example(ingredients=INGREDIENTS[0], cuts=[3, BLOCK + 2, 2 * BLOCK - 1], psi=0.5,
         gridded=False, seed=5)
@example(ingredients=INGREDIENTS[1], cuts=[BLOCK + 1, 5, 2 * BLOCK], psi=0.7,
         gridded=True, seed=6)
@settings(max_examples=40, deadline=None)
def test_a_traces_segments_are_one_pass_over_each_segment(ingredients, cuts, psi, gridded,
                                                         seed):
    """A trace feeds each segment between checkpoints tile by tile, and
    its checkpoints fall inside tiles; each segment's sums equal, bit for
    bit, one pass over that slice of the one-trial oracle's path, and each
    sup error is that of the segments' running total."""
    field, deploy, noise = ingredients
    checkpoints = tuple(np.cumsum(cuts).tolist())
    with mock.patch.object(spectral, "BLOCK_POINTS", BLOCK), \
            mock.patch.object(spectral, "_gridded", lambda n, K: gridded):
        trace = as_error_trace(field, deploy, noise, psi, seed, checkpoints)
        m_max = max(trace.m_values)
        path = reference_batch(field, deploy, noise, checkpoints[-1], seed)
        w = path.bits / deploy.pdf(path.x)
        true = true_coefficients(field, m_max).values
        grid = np.linspace(0.0, 1.0, analysis.TRACE_GRID_POINTS)
        totals, prev = np.zeros(m_max, dtype=np.complex128), 0
        for ckpt, m, sup in zip(checkpoints, trace.m_values, trace.sup_error):
            segment = slice(prev, ckpt)
            totals = totals + basis_sums(m_max, path.x[None, segment], w[None, segment])[0]
            prev = ckpt
            delta = (path.c / ckpt) * totals[:m] - true[:m]
            assert np.max(np.abs(synthesize(delta, grid))) == sup, ckpt
