import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ditherfield import (FieldSpec, FiniteDimField, FourierBasis,
                         SobolevField, StepBasis, field_from_json,
                         m_term_error, make_bv_field, make_finite_dim_field,
                         make_sobolev_field, true_coefficients, zero_field)
from ditherfield.fields import J_TAIL, synthesize

from conftest import SHIPPED_K5_COEFFS, midpoint_grid

# oracle values from independent Gauss-Kronrod quadrature at 1e-12
SAWTOOTH_ALPHA_2 = 0.15915494309189535j          # <x - 1/2, e^{2 pi i x}>
STEP_ALPHA_2 = 0.3183098861837907j               # unit step at 1/2
STAIRCASE_ALPHA_3 = -0.15915494309189535j
LN3 = 1.0986122886681098


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

def test_fourier_indexing_matches_the_interleaved_convention(fourier):
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(fourier.eval(0, x), 1.0)
    for j in range(1, 9):
        if j % 2 == 0:
            expected = np.exp(1j * np.pi * j * x)
        else:
            expected = np.exp(-1j * np.pi * (j + 1) * x)
        assert np.allclose(fourier.eval(j, x), expected, atol=1e-14)


@pytest.mark.parametrize("basis_name", ["fourier", "step"])
def test_orthonormality_up_to_64(basis_name):
    basis = FourierBasis() if basis_name == "fourier" else StepBasis(cells=128)
    xg = midpoint_grid()
    block = np.column_stack([basis.eval(j, xg) for j in range(65)])
    gram = block.conj().T @ block / len(xg)
    assert np.max(np.abs(gram - np.eye(65))) < 1e-8


def test_uniform_amplitude_bounds(fourier, step64):
    x = np.linspace(0.0, 1.0, 4097)
    for j in range(0, 40, 7):
        assert np.max(np.abs(fourier.eval(j, x))) <= 1.0 + 1e-12
    for j in range(0, 64, 9):
        assert np.max(np.abs(step64.eval(j, x))) <= step64.bound + 1e-12
    assert fourier.bound == 1.0
    assert step64.bound == pytest.approx(8.0)


def test_unit_vector_synthesis_matches_scalar_eval(fourier, step64):
    x = np.linspace(0.0, 1.0, 101)
    for basis, count in ((fourier, 12), (step64, 10)):
        for j in range(count):
            unit = np.zeros(count)
            unit[j] = 1.0
            assert np.allclose(synthesize(basis, unit, x), basis.eval(j, x),
                               rtol=0.0, atol=1e-12)
            assert synthesize(basis, unit, 0.3) == pytest.approx(
                complex(basis.eval(j, 0.3)), abs=1e-12)


# ---------------------------------------------------------------------------
# true coefficients
# ---------------------------------------------------------------------------

def test_zero_field_coefficients(fourier):
    cv = true_coefficients(zero_field(), fourier, 4)
    assert np.array_equal(cv.values, np.zeros(4, dtype=complex))


def test_cosine_synthesis_analysis_round_trip(fourier):
    # f = (phi_1 + phi_2) / 2 = cos(2 pi x)
    field = make_finite_dim_field(fourier, [0.0, 0.5, 0.5], amplitude_bound=1.0)
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(field.eval(x), np.cos(2 * np.pi * x), atol=1e-12)
    cv = true_coefficients(field, fourier, 4)
    assert np.allclose(cv.values, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_sawtooth_coefficient_against_quadrature_oracle(sawtooth, fourier):
    cv = true_coefficients(sawtooth, fourier, 4)
    assert cv.values[2] == pytest.approx(SAWTOOTH_ALPHA_2, abs=1e-12)
    assert cv.values[1] == pytest.approx(np.conj(SAWTOOTH_ALPHA_2), abs=1e-12)
    assert cv.values[0] == pytest.approx(0.0, abs=1e-12)


def test_step_and_staircase_coefficients(step_field, staircase, fourier):
    cv = true_coefficients(step_field, fourier, 6)
    assert cv.values[0] == pytest.approx(0.5, abs=1e-12)
    assert cv.values[2] == pytest.approx(STEP_ALPHA_2, abs=1e-12)
    assert cv.values[4] == pytest.approx(0.0, abs=1e-12)  # even frequencies vanish
    cv2 = true_coefficients(staircase, fourier, 6)
    assert cv2.values[0] == pytest.approx(0.0, abs=1e-12)
    assert cv2.values[3] == pytest.approx(STAIRCASE_ALPHA_3, abs=1e-12)


def test_quadrature_fallback_agrees_with_closed_form(fourier, sawtooth):
    class OpaqueSawtooth(FieldSpec):
        kind = "opaque"
        amplitude_bound = 0.5
        norm_sq = 1.0 / 12.0

        def eval(self, x):
            return np.asarray(x, dtype=float) - 0.5

    cv_quad = true_coefficients(OpaqueSawtooth(), fourier, 5)
    cv_closed = true_coefficients(sawtooth, fourier, 5)
    assert np.allclose(cv_quad.values, cv_closed.values, atol=1e-9)


def test_quadrature_failure_carries_the_achieved_tolerance(fourier):
    from ditherfield import QuadratureError

    class HostileField(FieldSpec):
        # oscillates far beyond any subdivision budget
        kind = "hostile"
        amplitude_bound = 1.0
        norm_sq = 0.5

        def eval(self, x):
            return np.sin(3.7e7 * np.asarray(x, dtype=float))

    with pytest.raises(QuadratureError) as err:
        true_coefficients(HostileField(), fourier, 1)
    assert err.value.achieved_tol > 1e-10


def test_step_basis_coefficients_are_scaled_cell_averages(step64, sawtooth):
    cv = true_coefficients(sawtooth, step64, 8)
    # cell j has midpoint (j + 0.5)/64; the field is linear, so the cell
    # average is exact there
    mids = (np.arange(8) + 0.5) / 64
    assert np.allclose(cv.values, (mids - 0.5) / 8.0, atol=1e-12)


def test_conjugate_pairing_for_real_fields(fourier, shipped_fields):
    for field in shipped_fields.values():
        cv = true_coefficients(field, fourier, 12)
        assert abs(cv.values[0].imag) < 1e-10
        for j in range(2, 12, 2):
            assert cv.values[j] == pytest.approx(np.conj(cv.values[j - 1]), abs=1e-10)


# ---------------------------------------------------------------------------
# m-term approximation and error
# ---------------------------------------------------------------------------

def test_m_zero_is_the_empty_sum(fourier, sawtooth):
    cv = true_coefficients(sawtooth, fourier, 8)
    x = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(synthesize(fourier, cv.values[:0], x),
                          np.zeros(11, dtype=complex))


def test_finite_dim_truncation_is_exact_at_k(fourier, finite_dim_k5):
    cv = true_coefficients(finite_dim_k5, fourier, 5)
    x = np.linspace(0.0, 1.0, 2001)
    approx = synthesize(fourier, cv.values[:5], x)
    assert np.max(np.abs(approx - finite_dim_k5.eval(x))) < 1e-10
    assert m_term_error(cv, finite_dim_k5, 5) == 0.0


def test_approximation_improves_with_m(fourier, sawtooth):
    cv = true_coefficients(sawtooth, fourier, 64)
    x = 0.25
    err2 = abs(synthesize(fourier, cv.values[:2], x) - sawtooth.eval(x))
    err64 = abs(synthesize(fourier, cv.values[:64], x) - sawtooth.eval(x))
    assert err64 < err2


def test_error_sequence_full_energy_at_zero_and_nonincreasing(fourier, sawtooth):
    cv = true_coefficients(sawtooth, fourier, 1024)
    assert m_term_error(cv, sawtooth, 0) == pytest.approx(sawtooth.norm_sq)
    errors = [m_term_error(cv, sawtooth, m) for m in (1, 2, 4, 8, 16, 64, 256, 1024)]
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-4


def test_bv_tail_scales_like_one_over_m(fourier, sawtooth, step_field, staircase):
    # the tail-bound constant is a fit, never pinned: assert boundedness only
    ms = np.array([4, 8, 16, 32, 64, 128, 256, 512])
    for field in (sawtooth, step_field, staircase):
        cv = true_coefficients(field, fourier, 512)
        scaled = [m * m_term_error(cv, field, m) for m in ms]
        sigma = max(scaled)
        assert sigma < 10.0 * field.norm_sq
        assert scaled[-1] < 2.0 * scaled[0] + 1e-12


def test_sobolev_tail_scales_like_m_to_minus_2s(fourier):
    for s in (1.0, 2.0):
        field = make_sobolev_field(s, seed=1)
        cv = true_coefficients(field, fourier, 257)
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


def test_parseval_within_tail_tolerance(fourier, shipped_fields):
    # independent route: grid quadrature of f^2 versus the coefficient energy
    xg = midpoint_grid()
    for name, field in shipped_fields.items():
        norm_quad = float(np.mean(field.eval(xg) ** 2))
        cv = true_coefficients(field, fourier, J_TAIL)
        energy = float(np.sum(np.abs(cv.values) ** 2))
        assert abs(norm_quad - energy) <= 1e-4 * field.norm_sq, name
        assert abs(norm_quad - field.norm_sq) <= 1e-4 * field.norm_sq, name


def test_sobolev_field_is_deterministic_and_real():
    f1 = make_sobolev_field(1.5, seed=11)
    f2 = make_sobolev_field(1.5, seed=11)
    assert np.array_equal(f1.values, f2.values)
    x = np.linspace(0.0, 1.0, 4096)
    freqs = [FourierBasis.frequency(j) for j in range(len(f1.values))]
    full = np.exp(2j * np.pi * np.outer(x, freqs)) @ f1.values
    assert np.max(np.abs(full.imag)) < 1e-12


def test_sobolev_rejects_low_smoothness():
    with pytest.raises(ValueError):
        make_sobolev_field(0.5, seed=1)


def test_finite_dim_rejects_broken_conjugate_pairs(fourier):
    with pytest.raises(ValueError):
        make_finite_dim_field(fourier, [0.1, 0.2 + 0.1j, 0.5], amplitude_bound=1.0)


@pytest.mark.parametrize("values", [[0.0, 1.0, 0.0],           # phi_1 without its partner
                                    [0.1j, 0.5, 0.5],           # complex constant
                                    [0.0, 0.5, 0.5, 0.25],      # unpaired trailing term
                                    [np.nan, 0.5, 0.5]])        # not finite
def test_directly_built_fields_reject_broken_pairs(fourier, values):
    with pytest.raises(ValueError):
        FiniteDimField(fourier, values, 1.0)
    with pytest.raises(ValueError):
        SobolevField(s=1.0, seed=0, amplitude_bound=1.0, values=values)


def test_step_field_rejects_complex_or_surplus_coefficients():
    with pytest.raises(ValueError, match="real"):
        FiniteDimField(StepBasis(cells=4), [0.5, 0.5j], 1.0)
    with pytest.raises(ValueError, match="more coefficients"):
        FiniteDimField(StepBasis(cells=4), np.ones(5), 1.0)


def test_sobolev_field_is_a_fourier_finite_dim_field():
    field = make_sobolev_field(1.0, seed=7, n_freqs=32)
    assert isinstance(field, FiniteDimField) and field.kind == "sobolev"
    assert field.basis == FourierBasis()
    assert "eval" not in vars(SobolevField)
    x = np.linspace(0.0, 1.0, 257)
    assert np.allclose(field.eval(x), synthesize(FourierBasis(), field.values, x).real,
                       rtol=0.0, atol=1e-12)


def test_finite_dim_rejects_amplitude_violation(fourier):
    with pytest.raises(ValueError):
        make_finite_dim_field(fourier, SHIPPED_K5_COEFFS, amplitude_bound=0.5)


def test_slowly_decaying_field_is_rejected_at_the_tail_horizon():
    # a 32-period square wave keeps ~1e-3 of its energy past the horizon
    edges = tuple(np.linspace(0.0, 1.0, 65))
    levels = tuple(1.0 if q % 2 == 0 else -1.0 for q in range(64))
    with pytest.raises(ValueError, match="residual"):
        make_bv_field("piecewise", edges=edges, levels=levels)


def test_field_json_round_trip(shipped_fields, fourier):
    x = np.linspace(0.0, 1.0, 501)
    fields = dict(shipped_fields,
                  sobolev_32=make_sobolev_field(1.0, seed=7, n_freqs=32))
    for name, field in fields.items():
        clone = field_from_json(field.to_json())
        assert np.allclose(clone.eval(x), field.eval(x), atol=1e-12), name
        assert clone.amplitude_bound == field.amplitude_bound


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
    field = make_finite_dim_field(FourierBasis(), values,
                                  amplitude_bound=2.0 * sum(abs(v) for v in values) + 1.0)
    cv = true_coefficients(field, FourierBasis(), len(values) + 2)
    errors = [m_term_error(cv, field, m) for m in range(len(cv) + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] == pytest.approx(0.0, abs=1e-12)


@given(conjugate_symmetric_coeffs())
@settings(max_examples=30, deadline=None)
def test_synthesis_analysis_round_trip_randomized(values):
    field = make_finite_dim_field(FourierBasis(), values,
                                  amplitude_bound=2.0 * sum(abs(v) for v in values) + 1.0)
    cv = true_coefficients(field, FourierBasis(), len(values))
    assert np.allclose(cv.values, np.asarray(values, dtype=complex), atol=1e-12)
