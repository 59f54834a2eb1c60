import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import polygamma

from ditherfield import (ConfigValidationError, FiniteDimField, FourierBasis,
                         SawtoothField, m_term_error, make_finite_dim_field, make_sobolev_field,
                         parse_experiment_config, true_coefficients)
from ditherfield.fields import frequencies, synthesize
from ditherfield.spectral import series

from conftest import HIGH_PAIR, SHIPPED_K5_COEFFS, fourier_eval, midpoint_grid, zero_field

# a coefficient horizon that holds all but 1e-4 of every shipped field's
# energy (the sawtooth is the binding case)
J_TAIL = 16384

# oracle values from independent Gauss-Kronrod quadrature at 1e-12
SAWTOOTH_ALPHA_2 = 0.15915494309189535j          # <x - 1/2, e^{2 pi i x}>
LN3 = 1.0986122886681098


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

def test_fourier_indexing_matches_the_interleaved_convention():
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(fourier_eval(0, x), 1.0)
    for j in range(1, 9):
        if j % 2 == 0:
            expected = np.exp(1j * np.pi * j * x)
        else:
            expected = np.exp(-1j * np.pi * (j + 1) * x)
        assert np.allclose(fourier_eval(j, x), expected, atol=1e-14)


def test_orthonormality_up_to_64():
    xg = midpoint_grid()
    block = np.column_stack([fourier_eval(j, xg) for j in range(65)])
    gram = block.conj().T @ block / len(xg)
    assert np.max(np.abs(gram - np.eye(65))) < 1e-8


def test_uniform_amplitude_bounds(fourier):
    x = np.linspace(0.0, 1.0, 4097)
    for j in range(0, 40, 7):
        assert np.max(np.abs(fourier_eval(j, x))) <= fourier.bound + 1e-12
    assert fourier.bound == 1.0


def test_unit_vector_synthesis_matches_scalar_eval():
    x = np.linspace(0.0, 1.0, 101)
    for j in range(12):
        unit = np.zeros(12)
        unit[j] = 1.0
        assert np.allclose(synthesize(unit, x), fourier_eval(j, x),
                           rtol=0.0, atol=1e-12)
        assert synthesize(unit, 0.3) == pytest.approx(
            complex(fourier_eval(j, 0.3)), abs=1e-12)


def test_synthesis_of_zero_and_constant_vectors():
    x = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(synthesize(np.zeros(4, dtype=complex), x), np.zeros(33, complex))
    assert np.allclose(synthesize(np.array([2.5 + 0j]), x), 2.5)


@pytest.mark.parametrize("x", [-0.3, -1e-9, 0.0, 1.0, 1.3])
def test_synthesis_matches_eval_outside_the_unit_interval(x):
    """Off [0, 1) the synthesis reads the periodic basis, as the
    exponentials themselves do."""
    values = np.array([1.0, 2.0 - 1.0j, 3.0, 4.0j, -0.5])
    direct = sum(v * fourier_eval(j, x) for j, v in enumerate(values))
    assert synthesize(values, x) == pytest.approx(complex(direct), abs=1e-12)


# ---------------------------------------------------------------------------
# true coefficients
# ---------------------------------------------------------------------------

def test_zero_field_coefficients():
    cv = true_coefficients(zero_field(), 4)
    assert np.array_equal(cv.values, np.zeros(4, dtype=complex))


def test_cosine_synthesis_analysis_round_trip(fourier):
    # f = (phi_1 + phi_2) / 2 = cos(2 pi x)
    field = make_finite_dim_field([0.0, 0.5, 0.5], amplitude_bound=1.0)
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(field.eval(x), np.cos(2 * np.pi * x), atol=1e-12)
    cv = true_coefficients(field, 4)
    assert np.allclose(cv.values, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_sawtooth_coefficient_against_quadrature_oracle(sawtooth):
    cv = true_coefficients(sawtooth, 4)
    assert cv.values[2] == pytest.approx(SAWTOOTH_ALPHA_2, abs=1e-12)
    assert cv.values[1] == pytest.approx(np.conj(SAWTOOTH_ALPHA_2), abs=1e-12)
    assert cv.values[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("j", [3, 4, 9, 64])
def test_sawtooth_coefficients_against_weighted_quadrature(sawtooth, j):
    """alpha_j = <x - 1/2, e^{2 pi i w x}> at the signed frequency w of phi_j,
    by QUADPACK's Fourier-weighted rule, past the indices the pinned oracle covers."""
    w = 2.0 * np.pi * frequencies(j + 1)[j]
    re_part = quad(sawtooth.eval, 0.0, 1.0, weight="cos", wvar=w, epsabs=1e-13)[0]
    im_part = -quad(sawtooth.eval, 0.0, 1.0, weight="sin", wvar=w, epsabs=1e-13)[0]
    assert true_coefficients(sawtooth, j + 1).values[j] == pytest.approx(
        complex(re_part, im_part), abs=1e-12)


def test_conjugate_pairing_for_real_fields(shipped_fields):
    for field in shipped_fields.values():
        cv = true_coefficients(field, 12)
        assert abs(cv.values[0].imag) < 1e-10
        for j in range(2, 12, 2):
            assert cv.values[j] == pytest.approx(np.conj(cv.values[j - 1]), abs=1e-10)


# ---------------------------------------------------------------------------
# m-term approximation and error
# ---------------------------------------------------------------------------

def test_m_zero_is_the_empty_sum(sawtooth):
    cv = true_coefficients(sawtooth, 8)
    x = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(synthesize(cv.values[:0], x),
                          np.zeros(11, dtype=complex))


def test_finite_dim_truncation_is_exact_at_k(finite_dim_k5):
    cv = true_coefficients(finite_dim_k5, 5)
    x = np.linspace(0.0, 1.0, 2001)
    approx = synthesize(cv.values[:5], x)
    assert np.max(np.abs(approx - finite_dim_k5.eval(x))) < 1e-10
    assert m_term_error(cv, finite_dim_k5, 5) == 0.0


def test_approximation_improves_with_m(sawtooth):
    cv = true_coefficients(sawtooth, 64)
    x = 0.25
    err2 = abs(synthesize(cv.values[:2], x) - sawtooth.eval(x))
    err64 = abs(synthesize(cv.values[:64], x) - sawtooth.eval(x))
    assert err64 < err2


def test_error_sequence_full_energy_at_zero_and_nonincreasing(sawtooth):
    cv = true_coefficients(sawtooth, 1024)
    assert m_term_error(cv, sawtooth, 0) == pytest.approx(sawtooth.norm_sq)
    errors = [m_term_error(cv, sawtooth, m) for m in (1, 2, 4, 8, 16, 64, 256, 1024)]
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-4


def test_bv_tail_scales_like_one_over_m(sawtooth):
    # the tail-bound constant is a fit, never pinned: assert boundedness only
    ms = np.array([4, 8, 16, 32, 64, 128, 256, 512])
    cv = true_coefficients(sawtooth, 512)
    scaled = [m * m_term_error(cv, sawtooth, m) for m in ms]
    assert max(scaled) < 10.0 * sawtooth.norm_sq
    assert scaled[-1] < 2.0 * scaled[0] + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 1000])
def test_sawtooth_tail_is_the_trigamma_sum(sawtooth, m):
    """Past the first m coefficients the sawtooth keeps sum 1/(4 pi^2 w^2)
    over its dropped frequencies: psi_1(K + 1) / (2 pi^2) for |w| > K = m // 2,
    plus the lone +K of an even m."""
    k = m // 2
    tail = polygamma(1, k + 1) / (2.0 * np.pi ** 2)
    if m % 2 == 0:
        tail += 1.0 / (4.0 * np.pi ** 2 * k ** 2)
    cv = true_coefficients(sawtooth, m)
    assert m_term_error(cv, sawtooth, m) == pytest.approx(tail, rel=1e-10)


def test_sobolev_tail_scales_like_m_to_minus_2s():
    for s in (1.0, 2.0):
        field = make_sobolev_field(s, seed=1)
        cv = true_coefficients(field, 257)
        ms = [4, 8, 16, 32, 64, 128, 256]
        scaled = [m ** (2 * s) * m_term_error(cv, field, m) for m in ms]
        assert max(scaled) < 50.0 * field.norm_sq


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def test_amplitude_bound_on_dense_grid(shipped_fields):
    x = np.linspace(0.0, 1.0, 100_001)
    for name, field in shipped_fields.items():
        assert np.max(np.abs(field.eval(x))) <= field.amplitude_bound + 1e-12, name


def test_parseval_within_tail_tolerance(shipped_fields):
    # independent route: grid quadrature of f^2 versus the coefficient energy
    xg = midpoint_grid()
    for name, field in shipped_fields.items():
        norm_quad = float(np.mean(field.eval(xg) ** 2))
        cv = true_coefficients(field, J_TAIL)
        energy = float(np.sum(np.abs(cv.values) ** 2))
        assert abs(norm_quad - energy) <= 1e-4 * field.norm_sq, name
        assert abs(norm_quad - field.norm_sq) <= 1e-4 * field.norm_sq, name


def test_sobolev_field_is_deterministic_and_real():
    f1 = make_sobolev_field(1.5, seed=11)
    f2 = make_sobolev_field(1.5, seed=11)
    assert np.array_equal(f1.values, f2.values)
    x = np.linspace(0.0, 1.0, 4096)
    freqs = frequencies(len(f1.values))
    full = np.exp(2j * np.pi * np.outer(x, freqs)) @ f1.values
    assert np.max(np.abs(full.imag)) < 1e-12


def test_sobolev_rejects_low_smoothness():
    with pytest.raises(ValueError):
        make_sobolev_field(0.5, seed=1)


@pytest.mark.parametrize("s", [np.inf, np.nan])
def test_sobolev_rejects_non_finite_smoothness(s):
    with pytest.raises(ValueError, match="^s must be a finite number, got"):
        make_sobolev_field(s, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_amplitude_bound_must_be_finite(bad):
    with pytest.raises(ValueError, match="^amplitude_bound must be a finite number, got"):
        FiniteDimField([0.1], bad)
    with pytest.raises(ValueError, match="^amplitude_bound must be a finite number, got"):
        make_sobolev_field(1.0, seed=1, amplitude_bound=bad)


def test_finite_dim_rejects_broken_conjugate_pairs():
    with pytest.raises(ValueError):
        make_finite_dim_field([0.1, 0.2 + 0.1j, 0.5], amplitude_bound=1.0)


@pytest.mark.parametrize("values", [[0.0, 1.0, 0.0],           # phi_1 without its partner
                                    [0.1j, 0.5, 0.5],           # complex constant
                                    [0.0, 0.5, 0.5, 0.25],      # unpaired trailing term
                                    [np.nan, 0.5, 0.5]])        # not finite
def test_directly_built_fields_reject_broken_pairs(values):
    with pytest.raises(ValueError):
        FiniteDimField(values, 1.0)


def test_sobolev_field_is_a_fourier_finite_dim_field():
    field = make_sobolev_field(1.0, seed=7, n_freqs=32)
    assert type(field) is FiniteDimField and field.kind == "finite_dim"
    assert field.basis == FourierBasis() and len(field.values) == 2 * 32 + 1
    x = np.linspace(0.0, 1.0, 257)
    assert np.allclose(field.eval(x), synthesize(field.values, x).real,
                       rtol=0.0, atol=1e-12)


def test_finite_dim_rejects_amplitude_violation():
    with pytest.raises(ValueError):
        make_finite_dim_field(SHIPPED_K5_COEFFS, amplitude_bound=0.5)


def test_the_amplitude_check_admits_a_bound_near_the_float_max():
    """The sum of |coefficients| of a field scaled to a = 1e308 overflows;
    the grid bound still admits it."""
    field = make_sobolev_field(1.0, seed=7, amplitude_bound=1e308)
    assert np.sum(np.abs(field.values) / 1e300) > np.finfo(float).max / 1e300
    assert field.amplitude_bound == 1e308


def test_the_amplitude_check_bounds_the_sup_between_its_grid_points():
    """The pair at frequency 2500 peaks between the points of a 20001-point
    grid: the check's grid grows with the top frequency, and the bound it
    reads between its points refuses a = 0.93. Its sum of |coefficients|
    is 1, which admits a = 1."""
    field = make_finite_dim_field(HIGH_PAIR, amplitude_bound=1.0)
    assert np.max(np.abs(field.eval(np.linspace(0.0, 1.0, 20_001)))) < 0.93
    assert np.max(np.abs(field.eval(np.linspace(0.0, 1.0, 400_001)))) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="may exceed its amplitude bound"):
        make_finite_dim_field(HIGH_PAIR, amplitude_bound=0.93)


@pytest.mark.parametrize("k, seed", [(313, 1), (700, 2), (1000, 3)])
def test_the_amplitude_check_refuses_every_bound_below_the_sup(k, seed):
    """A random real field of top frequency k is refused at an amplitude
    bound just under its sup, read on a grid 16 times finer than the check's."""
    rng = np.random.default_rng(seed)
    values = np.zeros(2 * k + 1, dtype=np.complex128)
    values[2::2] = rng.normal(size=k) + 1j * rng.normal(size=k)
    values[1::2] = np.conj(values[2::2])
    field = make_finite_dim_field(values, amplitude_bound=1e6)
    sup = np.max(np.abs(field.eval(np.linspace(0.0, 1.0, 16 * 64 * k + 1))))
    with pytest.raises(ValueError, match="may exceed its amplitude bound"):
        make_finite_dim_field(values, amplitude_bound=sup * (1 - 1e-9))


def field_from_document(doc):
    """The field a config's field document builds."""
    return parse_experiment_config({
        "experiment_id": "field", "field": doc, "deployment": {"kind": "uniform"},
        "noise": {"kind": "zero"}, "schedule": {"kind": "fixed", "m": 1},
        "n_grid": [16], "trials": 2, "seed": 0}).field


# field documents and the fields they build; the bv document is the shipped
# sawtooth's, the others no shipped config or parser test reads
@pytest.mark.parametrize("doc, field", [
    ({"class": "bv"}, SawtoothField()),
    ({"class": "sobolev", "s": 1.0, "seed": 7, "n_freqs": 32},
     make_sobolev_field(1.0, seed=7, n_freqs=32)),
    ({"class": "finite_dim", "coefficients": [[0.2, 0.0], [0.1, 0.1], [0.1, -0.1]],
      "amplitude_bound": 1.0},
     make_finite_dim_field([0.2, 0.1 + 0.1j, 0.1 - 0.1j], amplitude_bound=1.0))],
    ids=["bv", "sobolev_n_freqs", "finite_dim_no_basis"])
def test_field_documents_build_their_fields(doc, field):
    """A finite_dim document, which names no basis, builds on the Fourier basis."""
    x = np.linspace(0.0, 1.0, 501)
    built = field_from_document(doc)
    assert type(built) is type(field)
    assert np.array_equal(built.eval(x), field.eval(x))
    assert built.amplitude_bound == field.amplitude_bound
    assert getattr(built, "basis", None) == getattr(field, "basis", None)


@pytest.mark.parametrize("doc, extra", [
    ({"class": "sobolev", "s": 1, "seed": 7, "n_freq": 16}, "n_freq"),
    ({"class": "bv", "scale": 2.0}, "scale"),
    ({"class": "finite_dim", "coefficients": [[0.5, 0.0]], "amplitude_bound": 1.0,
      "k": 1}, "k")],
    ids=["sobolev_n_freq", "bv_scale", "finite_dim_k"])
def test_a_field_document_takes_only_its_class_keys(doc, extra):
    """`n_freq` for `n_freqs` used to build the 128-pair default field."""
    with pytest.raises(ConfigValidationError,
                       match=rf"field\.{extra}: unexpected key; {doc['class']} field takes "):
        field_from_document(doc)


@pytest.mark.parametrize("custom", [{"edges": [0, 0.3, 1], "levels": [0, 1]},
                                    {"edges": [0, 0.3, 1]}, {"levels": [0, 1]}],
                         ids=["both", "edges", "levels"])
def test_a_bv_field_takes_no_edges_or_levels(custom):
    """The bv field is the sawtooth: a piecewise field's edges and levels are no keys of it."""
    with pytest.raises(ConfigValidationError) as err:
        field_from_document({"class": "bv", **custom})
    assert err.value.problems == [f"field.{key}: unexpected key; bv field takes ['class']"
                                  for key in custom]


@pytest.mark.parametrize("shape", ["sawtooth", "step", "staircase"])
@pytest.mark.parametrize("custom", [{"edges": [0, 0.3, 1], "levels": [0, 1]},
                                    {"edges": [0, 0.3, 1]}, {"levels": [0, 1]}],
                         ids=["both", "edges", "levels"])
def test_a_shipped_shape_takes_no_edges_or_levels(shape, custom):
    """A section written for a former shape with its own edges or levels is
    refused naming every stale key, the shape first, never half-read."""
    with pytest.raises(ConfigValidationError) as err:
        field_from_document({"class": "bv", "shape": shape, **custom})
    assert err.value.problems == [f"field.{key}: unexpected key; bv field takes ['class']"
                                  for key in ("shape", *custom)]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def conjugate_symmetric_coeffs(draw):
    n_pairs = draw(st.integers(min_value=0, max_value=5))
    finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    alpha0 = draw(finite)
    values = [complex(alpha0, 0.0)]
    for _ in range(n_pairs):
        re, im = draw(finite), draw(finite)
        values.extend([complex(re, -im), complex(re, im)])
    return values


@given(conjugate_symmetric_coeffs())
@settings(max_examples=40, deadline=None)
def test_error_is_nonincreasing_in_m_for_any_coefficients(values):
    field = make_finite_dim_field(values, amplitude_bound=2.0 * sum(abs(v) for v in values) + 1.0)
    cv = true_coefficients(field, len(values) + 2)
    errors = [m_term_error(cv, field, m) for m in range(len(cv) + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] == pytest.approx(0.0, abs=1e-12)


@given(conjugate_symmetric_coeffs())
@settings(max_examples=30, deadline=None)
def test_synthesis_analysis_round_trip_randomized(values):
    field = make_finite_dim_field(values, amplitude_bound=2.0 * sum(abs(v) for v in values) + 1.0)
    cv = true_coefficients(field, len(values))
    assert np.allclose(cv.values, np.asarray(values, dtype=complex), atol=1e-12)


def quad_parts(fn):
    """The integral of a complex fn over [0, 1], part by part."""
    kw = dict(epsabs=1e-13, epsrel=0.0, limit=400)
    return complex(quad(lambda x: fn(x).real, 0.0, 1.0, **kw)[0],
                   quad(lambda x: fn(x).imag, 0.0, 1.0, **kw)[0])


@given(conjugate_symmetric_coeffs())
@settings(max_examples=40, deadline=None)
def test_finite_dim_closed_forms_match_quad(values):
    field = FiniteDimField(values=values, amplitude_bound=sum(abs(v) for v in values) + 1.0)
    f = lambda x: complex(field.eval(x))
    freqs = np.arange(-4, 5)
    coeffs = field.fourier_coefficients(freqs)
    for w, c in zip(freqs, coeffs):
        direct = quad_parts(lambda x: f(x) * np.exp(-2j * np.pi * w * x))
        assert abs(c - direct) <= 1e-12, w


# ---------------------------------------------------------------------------
# kept synthesis tables
# ---------------------------------------------------------------------------

def fourier_field(K: int, seed: int = 3) -> FiniteDimField:
    """A real Fourier-basis field with K random frequency pairs."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    values = np.empty(2 * K + 1, dtype=np.complex128)
    values[0] = rng.uniform(-1, 1)
    values[2::2], values[1::2] = pos, np.conj(pos)
    return FiniteDimField(values=values, amplitude_bound=1.0 + 2.0 * np.sum(np.abs(values)))


def table_probe_points() -> np.ndarray:
    return np.concatenate([np.linspace(-0.5, 1.5, 4097),
                           np.random.default_rng(9).random(5000)])


def test_fourier_frequencies_follow_the_interleave_rule():
    for count in (1, 2, 7, 64, J_TAIL):
        assert np.array_equal(frequencies(count), [j // 2 if j % 2 == 0 else -(j + 1) // 2
                                                   for j in range(count)])


@pytest.mark.parametrize("K", [2, 32, 128])
def test_field_eval_reuses_its_synthesis_tables(monkeypatch, K):
    field = fourier_field(K)
    x = table_probe_points()
    first = field.eval(x)
    calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: calls.append(1) or irfft(*a, **kw))
    assert np.array_equal(field.eval(x), first)
    assert calls == []


@pytest.mark.parametrize("K", [0, 1, 2, 32, 128])
@pytest.mark.parametrize("non_finite", [False, True])
def test_field_eval_equals_a_fresh_series_bitwise(K, non_finite):
    """Every point reads the field's tables on its own: a non-finite one
    reads NaN (at K = 0 too), and the finite points of its call, 1e308
    among them, keep the values they have without it."""
    field = fourier_field(K)
    x = table_probe_points()
    if non_finite:
        x[[10, 500, 4000, 4500]] = [np.nan, np.inf, -np.inf, 1e308]
    got = field.eval(x)
    assert np.array_equal(got, series(field.values[0].real, field.values[2::2], x),
                          equal_nan=True)
    assert np.isnan(got).sum() == 3 * non_finite
    finite = np.isfinite(x)
    assert np.array_equal(got[finite], field.eval(x[finite]))
    assert np.array_equal(got[4500], field.eval(x[4500]))


@pytest.mark.parametrize("K", [1, 32, 128])
def test_pickled_field_evaluates_bitwise_alike(monkeypatch, K):
    field = fourier_field(K)
    x = table_probe_points()
    restored = pickle.loads(pickle.dumps(field))
    # the tables travel with the field: the copy builds none
    monkeypatch.setattr(np.fft, "irfft", None)
    assert np.array_equal(restored.eval(x), field.eval(x))
