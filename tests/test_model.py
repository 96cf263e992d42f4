"""Root validation, pairing, characteristic polynomial, spectral density."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carkov import model
from carkov.errors import (
    CarkovError,
    NonPositiveImaginaryPart,
    NonPositiveScale,
    UnpairedRoot,
)
from conftest import make_random_spec


class TestValidate:
    def test_single_imaginary_root(self):
        spec = model.validate([1j], 1.0)
        assert spec.roots == (1j,)
        assert spec.scale == 1.0
        assert spec.k == 0

    def test_symmetric_pair(self):
        spec = model.validate([1 + 1j, -1 + 1j], 1.0)
        assert spec.k == 1
        assert spec.roots == (-1 + 1j, 1 + 1j)

    def test_repeated_root(self):
        spec = model.validate([2j, 2j], 0.5)
        assert spec.roots == (2j, 2j)

    def test_canonical_order(self):
        spec = model.validate([2j, 1 + 1j, -1 + 1j], 3.0)
        assert spec.roots == (-1 + 1j, 1 + 1j, 2j)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(NonPositiveImaginaryPart):
            model.validate([-1j], 1.0)

    def test_real_root_rejected(self):
        with pytest.raises(NonPositiveImaginaryPart):
            model.validate([1.0 + 0j], 1.0)

    def test_unpaired_rejected(self):
        with pytest.raises(UnpairedRoot):
            model.validate([1 + 1j], 1.0)

    def test_odd_partner_rejected(self):
        with pytest.raises(UnpairedRoot):
            model.validate([1 + 1j, -1 + 1j, -1 + 1j], 1.0)

    def test_scale_positive(self):
        with pytest.raises(NonPositiveScale):
            model.validate([1j], 0.0)
        with pytest.raises(NonPositiveScale):
            model.validate([1j], -2.0)

    @pytest.mark.parametrize("roots, scale, value", [
        ([complex(0.0, float("inf"))], 1.0, "infj"),
        ([complex(float("nan"), 1.0)], 1.0, "nan"),
        ([1j], float("inf"), "inf"),
        ([1j], float("nan"), "nan"),
    ])
    def test_non_finite_rejected(self, roots, scale, value):
        with pytest.raises(CarkovError, match="finite") as err:
            model.validate(roots, scale)
        assert type(err.value) is CarkovError
        assert value in str(err.value)

    def test_empty_rejected(self):
        with pytest.raises(UnpairedRoot):
            model.validate([], 1.0)

    def test_pairing_tolerance(self):
        # mismatch below the tolerance is accepted, above is rejected
        model.validate([1 + 1j, -1 + 5e-10 + 1j], 1.0)
        with pytest.raises(UnpairedRoot):
            model.validate([1 + 1j, -1 + 5e-9 + 1j], 1.0)

    def test_double_pair(self):
        spec = model.validate([1 + 1j, 1 + 1j, -1 + 1j, -1 + 1j], 1.0)
        assert spec.k == 3


class TestOdeCharPoly:
    def test_k0(self):
        chi = model.ode_char_poly(model.validate([1j], 1.0))
        assert len(chi.coefficients) - 1 == 1
        np.testing.assert_allclose(chi.coefficients, (1.0, 1.0), atol=1e-15)

    def test_k1_repeated(self):
        chi = model.ode_char_poly(model.validate([1j, 1j], 1.0))
        np.testing.assert_allclose(chi.coefficients, (1.0, 2.0, 1.0), atol=1e-15)

    def test_k1_pair(self):
        chi = model.ode_char_poly(model.validate([1 + 1j, -1 + 1j], 1.0))
        np.testing.assert_allclose(chi.coefficients, (2.0, 2.0, 1.0), atol=1e-14)

    def test_evaluation(self):
        chi = model.ode_char_poly(model.validate([1j, 1j], 1.0))
        value = np.polyval(chi.coefficients[::-1], -1.0)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_roots_are_stable(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = make_random_spec(rng)
            chi = model.ode_char_poly(spec)
            lam = np.roots(chi.coefficients[::-1])
            min_sigma = min(z.imag for z in spec.roots)
            assert lam.real.max() <= -min_sigma + 1e-7


class TestAbsPSquared:
    def test_k0_value(self):
        spec = model.validate([1j], 1.0)
        assert model.abs_p_squared(spec, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_repeated_value(self):
        spec = model.validate([1j, 1j], 1.0)
        assert model.abs_p_squared(spec, 1.0) == pytest.approx(4.0, rel=1e-15)

    def test_scale_enters_squared(self):
        base = model.validate([1j], 1.0)
        scaled = model.validate([1j], 3.0)
        z = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(
            model.abs_p_squared(scaled, z), 9.0 * model.abs_p_squared(base, z)
        )

    def test_vectorized(self):
        spec = model.validate([1 + 1j, -1 + 1j], 1.0)
        z = np.linspace(-5, 5, 11)
        out = model.abs_p_squared(spec, z)
        assert out.shape == z.shape
        assert (out > 0).all()


@st.composite
def root_sets(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    n = k + 1
    n_pairs = draw(st.integers(min_value=0, max_value=n // 2))
    fl = st.floats(min_value=0.2, max_value=3.0, allow_nan=False)
    roots = []
    for _ in range(n_pairs):
        sigma, rho = draw(fl), draw(fl)
        roots += [complex(rho, sigma), complex(-rho, sigma)]
    for _ in range(n - 2 * n_pairs):
        roots.append(complex(0.0, draw(fl)))
    perm = draw(st.permutations(roots))
    return list(perm)


@given(root_sets(), st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_validate_properties(roots, scale):
    spec = model.validate(roots, scale)
    # canonical order regardless of input permutation
    keys = [(z.imag, z.real) for z in spec.roots]
    assert keys == sorted(keys)
    # spectral density even and positive
    z = np.array([0.3, 1.7, 2.9])
    np.testing.assert_allclose(
        model.abs_p_squared(spec, z), model.abs_p_squared(spec, -z),
        rtol=1e-12,
    )
    # characteristic polynomial is real, monic, degree k+1
    chi = model.ode_char_poly(spec)
    assert len(chi.coefficients) - 1 == spec.k + 1
    assert chi.coefficients[-1] == pytest.approx(1.0)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        spec = model.validate([1 + 1j, -1 + 1j, 2j], 1.5)
        again = model.from_config(model.to_config(spec))
        assert again == spec

    def test_file_round_trip(self, tmp_path):
        spec = model.validate([0.25 + 0.75j, -0.25 + 0.75j], 2.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model.to_config(spec)))
        assert model.load_model(path) == spec
        # byte stability of the serialization itself
        first = path.read_bytes()
        path.write_text(json.dumps(model.to_config(model.load_model(path))))
        assert path.read_bytes() == first

    def test_malformed_config(self):
        with pytest.raises(CarkovError):
            model.from_config({"roots": "nope", "scale": 1.0})
        with pytest.raises(CarkovError):
            model.from_config({"scale": 1.0})

    def test_config_is_plain_json(self):
        spec = model.validate([1j], 1.0)
        text = json.dumps(model.to_config(spec))
        assert json.loads(text) == {"roots": [[0.0, 1.0]], "scale": 1.0}
