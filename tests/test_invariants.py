"""Bitwise invariants of the trial engine at a small block size: with
blocks and tiles of 64 sensors, multi-block trials, blocks of several
trials and partial tiles cost microseconds, so hypothesis can draw the
shapes the full-size tests in test_engine.py pick by hand."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ditherfield import (AffineFloorDeployment, EstimatorConfig, FourierBasis,
                         StepBasis, TruncationSchedule, TwoPointNoise,
                         UniformSymNoise, estimate_coefficients, make_bv_field,
                         make_sobolev_field, simulate_batch, stream_keys,
                         trial_seed)
from ditherfield import spectral
from ditherfield.analysis import TrialCell
from ditherfield.estimator import add_sensors, finish_estimates

from conftest import collect_trials, reference_batch, tabulate_deployment

BLOCK = 64
INGREDIENTS = [(make_sobolev_field(1.0, seed=7, n_freqs=32), AffineFloorDeployment(nu=0.5),
                UniformSymNoise(b=1.0)),
               (make_bv_field("staircase"),
                tabulate_deployment(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)),
                TwoPointNoise(b=0.7))]
BASES = [FourierBasis(), StepBasis(cells=64)]


@given(ingredients=st.sampled_from(INGREDIENTS), basis=st.sampled_from(BASES),
       n=st.integers(min_value=1, max_value=6 * BLOCK), m=st.integers(min_value=1, max_value=64),
       trials=st.integers(min_value=1, max_value=5), start=st.integers(min_value=0),
       gridded=st.booleans(), seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
# three blocks summed on the direct path, and two-trial blocks on the gridded one
@example(ingredients=INGREDIENTS[0], basis=BASES[0], n=3 * BLOCK + 5, m=9, trials=2,
         start=2 * BLOCK + 3, gridded=False, seed=5)
@example(ingredients=INGREDIENTS[0], basis=BASES[0], n=BLOCK // 2, m=9, trials=3,
         start=7, gridded=True, seed=5)
@settings(max_examples=150, deadline=None)
def test_block_rows_and_tile_cuts_are_one_pass_of_one_trial(ingredients, basis, n, m, trials,
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

        rows = collect_trials([TrialCell(field, deploy, noise, basis, n, m, trials)], seed)[0]
        cfg = EstimatorConfig(basis=basis, density=deploy, c=whole.c,
                              schedule=TruncationSchedule.fixed(m))
        for t in range(trials):
            alone = reference_batch(field, deploy, noise, n, trial_seed(seed, 0, t))
            assert np.array_equal(rows[t], estimate_coefficients(alone, cfg, m).values), t

        cut = start - start % BLOCK
        sums = basis.running_sums(m, (trials,), n)
        for lo, hi in ((0, cut), (cut, n)):
            if hi > lo:
                add_sensors(sums, simulate_batch(field, deploy, noise, hi - lo, keys, lo), deploy)
        assert np.array_equal(finish_estimates(sums, whole.c, n).values, rows)
