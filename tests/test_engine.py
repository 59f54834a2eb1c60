"""The trial-block engine: stream words, block simulation and block
estimation, and the tiles of long trials, against the one-trial-at-a-time
oracle in conftest."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditherfield import (AffineFloorDeployment, EstimationError, EstimatorConfig,
                         FourierBasis, Linear2xDeployment, SawtoothField, SensorBatch,
                         TruncationSchedule, TwoPointNoise, UniformDeployment,
                         UniformSymNoise, ZeroNoise, estimate_coefficients,
                         make_finite_dim_field, make_sobolev_field, simulate_batch,
                         stream_keys, trial_seed)
from ditherfield import analysis, sensing, spectral
from ditherfield.analysis import TrialCell, as_error_trace
from ditherfield.harness import load_shipped_config, run_lemma_battery
from ditherfield.sensing import SPAWN_MAX
from ditherfield.spectral import BLOCK_POINTS, ConjSums

from conftest import (SHIPPED_K5_COEFFS, basis_sums, collect_trials, conj_sums,
                      reference_batch, substream, traced_peak_mb)

# the affine density at nu = 1 (the flat floor, which samples by its own
# branch), nu = 0, and two floors between, the last with weights up to 1000
DEPLOYMENTS = [UniformDeployment(), Linear2xDeployment(), AffineFloorDeployment(nu=0.5),
               AffineFloorDeployment(nu=1e-3)]
DEPLOYMENT_IDS = ["uniform", "linear_2x", "affine_floor_0.5", "affine_floor_0.001"]
NOISES = [ZeroNoise(), UniformSymNoise(b=1.0), TwoPointNoise(b=0.7)]
FIELDS = {"finite_dim": make_finite_dim_field(SHIPPED_K5_COEFFS, amplitude_bound=0.8),
          "sobolev": make_sobolev_field(1.0, seed=7),
          "sawtooth": SawtoothField()}
# 1 and 7 sensors make blocks of thousands of trials, 20000 a block of one;
# with m = 64 (frequencies up to 32) the type-1 sum is direct up to n = 1000
# and gridded at n = 20000
SENSOR_COUNTS = (1, 7, 1000, 20_000)
M = 64


def cell_for(field, deploy, noise, n, trials, m=M):
    return TrialCell(field, deploy, noise, n, m, trials)


def cfg_for(field, deploy, noise, m=M):
    """The oracle's estimator config for a cell of these ingredients."""
    return EstimatorConfig(basis=FourierBasis(), density=deploy,
                           c=field.amplitude_bound + noise.b, schedule=TruncationSchedule.fixed(m))


# ---------------------------------------------------------------------------
# stream words
# ---------------------------------------------------------------------------

def test_spawn_keys_of_every_length_read_distinct_streams():
    """A lone seed (), a key (a,), its extension (a, 0) and a key (a, b)
    under each label are 12 distinct streams, with distinct first draws."""
    seed, keys = 7_102_030, [(), (4,), (4, 0), (4, 9)]
    words = np.concatenate([stream_keys(seed, [key])[0] for key in keys])
    assert len({tuple(w) for w in words}) == 12
    gen = np.random.Generator(np.random.Philox(0))
    first = sensing._fill_uniforms(gen, words, np.empty((12, 1)), 0)[:, 0]
    assert len(set(first)) == 12
    assert np.array_equal(first, [substream(seed, label, key).random()
                                  for key in keys for label in range(3)])


def test_an_int_seed_and_its_words_seed_the_same_realization(sawtooth):
    """`trial_seed` returns one realization's stream words, which
    `simulate_batch` reads as a 1-D batch: that of the int seed, and that
    of the one-trial oracle."""
    assert np.array_equal(trial_seed(7, 2, 3), stream_keys(7, [(2, 3)])[0])
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    for words, want in ((trial_seed(5), simulate_batch(sawtooth, deploy, noise, 100, 5)),
                        (trial_seed(5, 2, 3),
                         reference_batch(sawtooth, deploy, noise, 100, 5, (2, 3)))):
        got = simulate_batch(sawtooth, deploy, noise, 100, words)
        for name in ("x", "y", "t", "bits"):
            assert getattr(got, name).shape == (100,)
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("seed", [np.random.SeedSequence(), np.random.SeedSequence([1, 2]),
                                  2 ** 64, -1, True],
                         ids=["os_entropy", "list_entropy", "above_u64", "negative", "bool"])
def test_a_seed_must_be_one_u64(sawtooth, seed):
    """A seed is a count (`as_count`) in [0, 2^64): entropy objects, bools and
    counts out of that range all fail the count rule, whose message names it."""
    with pytest.raises(ValueError) as caught:
        simulate_batch(sawtooth, UniformDeployment(), ZeroNoise(), 10, seed)
    assert str(caught.value) == f"seed must be an integer in [0, {2 ** 64 - 1}], got {seed!r}"


def test_spawn_key_entries_must_be_nonnegative():
    with pytest.raises(ValueError, match="spawn-key entries must be nonnegative"):
        stream_keys(1, [(0, 3), (2, -1)])


@pytest.mark.parametrize("entry, message", [
    (1.5, "each spawn-key entry must be an integer, got 1.5"),
    (SPAWN_MAX + 1, r"spawn-key entries must be nonnegative ints of at most 2\^64 - 2"),
    (2 ** 64, r"spawn-key entries must be nonnegative ints of at most 2\^64 - 2"),
    (True, "each spawn-key entry must be an integer, got True"),
    (False, "each spawn-key entry must be an integer, got False")],
    ids=["1.5", str(SPAWN_MAX + 1), str(2 ** 64), "True", "False"])
def test_spawn_key_entries_are_ints_whose_word_fits(entry, message):
    """A fractional entry is not truncated into another key's stream, a
    bool does not alias the int 0 or 1 (both by the count rule), and an
    entry whose word entry + 1 passes 2^64 - 1 names the rule."""
    with pytest.raises(ValueError, match=message):
        stream_keys(1, [(0, 3), (2, entry)])


def test_integral_float_and_numpy_stream_words_are_their_ints():
    """The count rule reads 7.0 and numpy integers as the ints they hold."""
    want = stream_keys(7, [(1, 2)])
    assert np.array_equal(stream_keys(7.0, [(1.0, np.uint64(2))]), want)
    assert np.array_equal(stream_keys(np.int64(7), np.array([[1, 2]])), want)


def test_the_largest_spawn_key_entry_is_accepted():
    words = stream_keys(1, [(2 ** 63, 0), (SPAWN_MAX, SPAWN_MAX)])
    assert words[:, 0, 2:].tolist() == [[2 ** 63 + 1, 1], [2 ** 64 - 1, 2 ** 64 - 1]]


def test_spawn_keys_have_at_most_two_entries(sawtooth):
    with pytest.raises(ValueError, match="at most 2 entries"):
        stream_keys(1, [(0, 1, 2)])
    with pytest.raises(ValueError, match="at most 2 entries"):
        simulate_batch(sawtooth, UniformDeployment(), ZeroNoise(), 10, trial_seed(1, 0, 1, 2))


def test_block_seed_must_be_a_key_array(sawtooth):
    keys = stream_keys(3, [(0,), (1,)])
    with pytest.raises(ValueError, match="uint64 array"):
        simulate_batch(sawtooth, UniformDeployment(), ZeroNoise(), 10, keys[:, :2])


# ---------------------------------------------------------------------------
# block rows against the one-trial oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("noise", NOISES, ids=lambda z: z.kind)
@pytest.mark.parametrize("deploy", DEPLOYMENTS, ids=DEPLOYMENT_IDS)
def test_block_rows_equal_the_one_trial_oracle(deploy, noise):
    seed, trials = 515, 3
    for field in FIELDS.values():
        for n in SENSOR_COUNTS:
            cell = cell_for(field, deploy, noise, n, trials)
            rows = collect_trials([cell], seed)[0]
            for t in range(trials):
                batch = reference_batch(field, deploy, noise, n, seed, (0, t))
                want = estimate_coefficients(
                    batch, cfg_for(field, deploy, noise), M).values
                assert np.array_equal(rows[t], want), (field.kind, n, t)


@pytest.mark.parametrize("n", SENSOR_COUNTS + (70_000,))
def test_block_batch_rows_equal_single_batches(n):
    """Every array of a block batch, row by row, and the estimate of the
    block, including a block wider than the direct path's point chunk."""
    field, deploy, noise = FIELDS["sobolev"], AffineFloorDeployment(nu=0.5), UniformSymNoise()
    keys = stream_keys(88, [(2, t) for t in range(3)])
    block = simulate_batch(field, deploy, noise, n, keys)
    assert block.x.shape == (3, n) and block.n == n
    cfg = cfg_for(field, deploy, noise)
    estimates = estimate_coefficients(block, cfg, M).values
    for t in range(3):
        single = simulate_batch(field, deploy, noise, n, trial_seed(88, 2, t))
        for name in ("x", "y", "t", "bits"):
            assert np.array_equal(getattr(block, name)[t], getattr(single, name)), name
        assert np.array_equal(estimates[t], estimate_coefficients(single, cfg, M).values)


@pytest.mark.parametrize("n", SENSOR_COUNTS + (4096, 70_000))
@pytest.mark.parametrize("K", [0, 3, 40])
def test_conj_sums_rows_equal_the_row_alone(n, K):
    """At n = 4096 and K = 40 the three rows share one gridded block."""
    rng = np.random.default_rng(n + K)
    x, w = rng.random((3, n)), rng.standard_normal((3, n))
    rows = conj_sums(x, w, K)
    assert rows.shape == (3, K + 1)
    for r in range(3):
        assert np.array_equal(rows[r], conj_sums(x[r], w[r], K))


def test_a_bad_sensor_in_a_block_is_named_by_row_and_column(sawtooth):
    block = simulate_batch(sawtooth, UniformDeployment(), ZeroNoise(), 5,
                           stream_keys(1, [(0,), (1,)]))
    block.bits[1, 3] = 0.0
    cfg = cfg_for(sawtooth, UniformDeployment(), ZeroNoise())
    with pytest.raises(EstimationError, match=r"bits\[1, 3\]=0.0"):
        estimate_coefficients(block, cfg, 4)


# ---------------------------------------------------------------------------
# prefix stability
# ---------------------------------------------------------------------------

def test_the_engine_is_prefix_stable(sawtooth):
    """More trials keep the first trials' rows; more sensors keep the first
    sensors of every row of a block."""
    deploy, noise = UniformDeployment(), UniformSymNoise(b=1.0)
    short = collect_trials([cell_for(sawtooth, deploy, noise, 500, 40)],
                           seed=9)[0]
    long = collect_trials([cell_for(sawtooth, deploy, noise, 500, 90)],
                          seed=9)[0]
    assert np.array_equal(short, long[:40])

    keys = stream_keys(9, [(0, t) for t in range(4)])
    small = simulate_batch(sawtooth, deploy, noise, 300, keys)
    grown = simulate_batch(sawtooth, deploy, noise, 3000, keys)
    for name in ("x", "y", "t", "bits"):
        assert np.array_equal(getattr(small, name), getattr(grown, name)[:, :300]), name


# ---------------------------------------------------------------------------
# estimator properties
# ---------------------------------------------------------------------------

# scale factors away from the subnormal range, where relative error is unbounded
factors = st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)


# at 3000 sensors and m >= 50 the type-1 sum goes gridded
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([1, 7, 40, 3000]),
       st.integers(min_value=1, max_value=64), factors, factors)
@settings(max_examples=60, deadline=None)
def test_the_estimate_is_linear_in_the_bits(seed, n, m, a, b):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    bits1, bits2 = (np.where(rng.random(n) < 0.5, -1.0, 1.0) for _ in range(2))
    p = AffineFloorDeployment(nu=0.5).pdf(x)
    s1, s2 = (basis_sums(m, x, bits / p) for bits in (bits1, bits2))
    mixed = basis_sums(m, x, (a * bits1 + b * bits2) / p)
    scale = (abs(a) + abs(b)) * np.sum(1.0 / p)  # |phi_j| = 1
    assert np.max(np.abs(mixed - (a * s1 + b * s2))) <= 1e-12 * scale


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_flipping_every_bit_negates_the_estimate(seed):
    field, deploy, noise = FIELDS["sawtooth"], UniformDeployment(), UniformSymNoise(b=1.0)
    batch = simulate_batch(field, deploy, noise, 700, stream_keys(seed, [(0,), (1,)]))
    cfg = cfg_for(field, deploy, noise)
    flipped = SensorBatch(x=batch.x, y=batch.y, t=batch.t, bits=-batch.bits, c=batch.c)
    assert np.array_equal(estimate_coefficients(flipped, cfg, M).values,
                          -estimate_coefficients(batch, cfg, M).values)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(SENSOR_COUNTS), st.integers(min_value=1, max_value=99))
@settings(max_examples=40, deadline=None)
def test_real_weight_estimates_are_conjugate_symmetric(seed, n, m):
    """phi_{2k-1} = conj(phi_{2k}), so real weights give alpha_{2k-1} =
    conj(alpha_{2k}), row by row."""
    rng = np.random.default_rng(seed)
    x, w = rng.random((2, n)), rng.standard_normal((2, n))
    sums = basis_sums(m, x, w)
    pairs = (m - 1) // 2
    assert np.array_equal(sums[:, 1:1 + 2 * pairs:2], np.conj(sums[:, 2:2 + 2 * pairs:2]))
    assert np.all(sums[:, 0].imag == 0.0)


# ---------------------------------------------------------------------------
# tiles: trials of more than BLOCK_POINTS sensors
# ---------------------------------------------------------------------------

# m = 4 or 5 (frequencies up to 2) keeps the type-1 sum direct at these n,
# m = 63 or 64 (up to 32) makes it gridded; an even m ends on an unpaired
# negative frequency, an odd one on a whole pair
TILED_COUNTS = (2 * BLOCK_POINTS + 3, 3 * BLOCK_POINTS)


@pytest.mark.parametrize("n", TILED_COUNTS)
@pytest.mark.parametrize("m, gridded", [(4, False), (64, True), (5, False), (63, True)],
                         ids=["direct", "gridded", "direct_odd", "gridded_odd"])
def test_tiled_rows_equal_the_one_trial_oracle(n, m, gridded):
    """A trial cut into tiles of BLOCK_POINTS sensors gives, bit for bit,
    the estimate of its whole batch in one pass."""
    assert spectral._gridded(n, m // 2) is gridded
    seed, trials = 616, 2
    for field, deploy, noise in [(FIELDS["sobolev"], AffineFloorDeployment(nu=0.5),
                                  UniformSymNoise(b=1.0)),
                                 (FIELDS["sawtooth"], UniformDeployment(), TwoPointNoise(b=0.7))]:
        cell = cell_for(field, deploy, noise, n, trials, m)
        rows = collect_trials([cell], seed)[0]
        for t in range(trials):
            batch = reference_batch(field, deploy, noise, n, seed, (0, t))
            want = estimate_coefficients(batch, cfg_for(field, deploy, noise, m),
                                         m).values
            assert np.array_equal(rows[t], want), (field.kind, t)


@given(st.integers(min_value=0, max_value=4000), st.integers(min_value=1, max_value=1500),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_window_equals_the_slice_of_the_whole_draw(start, n, block):
    """Sensors [start, start + n), drawn through the Philox counter, are
    that slice of the batch of start + n sensors, for a block of key rows
    and for one seed alike."""
    field, deploy, noise = FIELDS["sobolev"], AffineFloorDeployment(nu=0.5), UniformSymNoise()
    seed = stream_keys(31, [(5, t) for t in range(3)]) if block else trial_seed(31, 5, 0)
    whole = simulate_batch(field, deploy, noise, start + n, seed)
    window = simulate_batch(field, deploy, noise, n, seed, start)
    assert window.start == start and window.n == n
    for name in ("x", "y", "t", "bits"):
        assert np.array_equal(getattr(window, name), getattr(whole, name)[..., start:]), name


def test_a_window_start_is_nonnegative(sawtooth):
    with pytest.raises(ValueError, match="start must be an integer >= 0, got -1"):
        simulate_batch(sawtooth, UniformDeployment(), ZeroNoise(), 10, 3, -1)


def test_tiled_rows_do_not_depend_on_the_worker_count(monkeypatch):
    """One-trial pool tasks, which two workers run out of order."""
    monkeypatch.setattr(analysis, "TASK_SENSORS", 1)
    cell = cell_for(FIELDS["sawtooth"], UniformDeployment(), UniformSymNoise(b=1.0),
                    BLOCK_POINTS + 3616, 3)
    one = collect_trials([cell], seed=12, workers=1)[0]
    two = collect_trials([cell], seed=12, workers=2)[0]
    assert np.array_equal(one, two)


def test_a_bad_sensor_in_a_later_tile_is_named_by_its_index(sawtooth, monkeypatch):
    """The index is the sensor's place in its realization, not in its tile."""
    deploy, noise = UniformDeployment(), ZeroNoise()
    cfg = cfg_for(sawtooth, deploy, noise)
    window = simulate_batch(sawtooth, deploy, noise, 20_000 - BLOCK_POINTS, 4, BLOCK_POINTS)
    window.bits[17_000 - BLOCK_POINTS] = 0.0
    with pytest.raises(EstimationError, match=r"bits\[17000\]=0.0"):
        estimate_coefficients(window, cfg, M)

    def corrupted(*args):
        tile = simulate_batch(*args)
        if tile.start <= 17_000 < tile.start + tile.n:
            tile.bits[0, 17_000 - tile.start] = 0.0
        return tile

    monkeypatch.setattr(analysis, "simulate_batch", corrupted)
    cell = cell_for(sawtooth, deploy, noise, 20_000, 1)
    with pytest.raises(EstimationError, match=r"bits\[0, 17000\]=0.0"):
        collect_trials([cell], seed=4)


@pytest.mark.parametrize("gridded", [False, True])
def test_running_sums_take_whole_blocks_and_every_point(gridded):
    """Every tile but the last holds whole blocks of the type-1 sums, and
    the sums are only read once every point is in."""
    rng = np.random.default_rng(8)
    x, w = rng.random(40_000), rng.standard_normal(40_000)
    with mock.patch.object(spectral, "_gridded", lambda n, K: gridded):
        sums = ConjSums((), 40_000, 20)
        sums.add(x[:20_000], w[:20_000])
        with pytest.raises(ValueError, match="partial block"):
            sums.add(x[20_000:], w[20_000:])
        sums = ConjSums((), 40_000, 20)
        sums.add(x[:BLOCK_POINTS], w[:BLOCK_POINTS])
        with pytest.raises(ValueError, match="fed 16384 of 40000"):
            sums.result()
        sums.add(x[BLOCK_POINTS:], w[BLOCK_POINTS:])
        assert np.array_equal(sums.result(), conj_sums(x, w, 20))


def test_a_tiled_trial_holds_no_row_of_all_its_sensors():
    """One n = 262144 cell of the bv sweep (m = 512) keeps its traced
    memory to a few tiles: full-row arrays take about 16 MB."""
    field, deploy, noise = SawtoothField(), UniformDeployment(), UniformSymNoise(b=1.0)
    n = 1 << 18
    m = TruncationSchedule.bv().resolve(n)
    assert m == 512
    cell = cell_for(field, deploy, noise, n, 2, m)
    assert traced_peak_mb(lambda: collect_trials([cell], seed=3)) < 4.0


def test_the_lemma_battery_holds_no_array_of_all_its_trials():
    """The battery keeps running sums per cell, not every trial's
    estimates: the 3072 more trials of 18 cells at 8 coefficients take
    7 MB. From 1024 trials on, a block of 16 sensors per trial is full
    size, so what grows is one chunk's estimates and stream words."""
    assert BLOCK_POINTS // 16 == 1024
    small, large = (traced_peak_mb(lambda: run_lemma_battery(n=16, trials=trials, j_count=8))
                    for trials in (1024, 4096))
    assert large - small < 1.0


def test_a_trace_holds_no_array_of_its_whole_path():
    """The shipped sawtooth trace (10^6 sensors) runs through the same
    tiles and keeps its traced memory to a few of them: one array of its
    whole path takes 8 MB."""
    config = load_shipped_config("as_trace_sawtooth")
    assert config.n_grid[-1] == 1_000_000
    peak = traced_peak_mb(lambda: as_error_trace(
        config.field, config.deployment, config.noise, psi=config.schedule.psi,
        seed=config.seed, n_checkpoints=config.n_grid))
    assert peak < 8.0
