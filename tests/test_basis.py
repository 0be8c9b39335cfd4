import numpy as np
import pytest

from cplab import OperatorBasis, basis, direction_operator, standard_basis
from cplab.errors import InvalidDimension, NonFinite, ShapeMismatch

from helpers import random_hermitian

SQ2 = np.sqrt(2.0)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)


def _gram(elements):
    return np.einsum("aji,bji->ab", np.conj(elements), elements)


def test_d2_is_normalized_pauli():
    basis = standard_basis(2)
    for got, pauli in zip(basis.elements, PAULI):
        np.testing.assert_allclose(got, pauli / SQ2, atol=1e-15)


@pytest.mark.parametrize("d,count", [(3, 8), (4, 15)])
def test_gram_matrix_is_identity(d, count):
    basis = standard_basis(d)
    assert basis.size == count
    gram = _gram(basis.elements)
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-12
    assert np.max(np.abs(np.einsum("aii->a", basis.elements))) <= 1e-12


def test_deterministic_output():
    np.testing.assert_array_equal(standard_basis(3).elements, standard_basis(3).elements)


@pytest.mark.parametrize("d", [2.5, 2.0, "3"])
def test_non_integer_dimension(d):
    with pytest.raises(InvalidDimension, match="integer dimension"):
        standard_basis(d)


def test_invalid_dimension():
    with pytest.raises(InvalidDimension):
        standard_basis(1)


class TestPerDimensionConstant:
    """``standard_basis`` builds each dimension's basis once and shares it read-only."""

    def test_one_basis_per_dimension(self):
        assert standard_basis(3) is standard_basis(3)

    def test_numpy_integer_dimension_shares_the_int_basis(self):
        shared = standard_basis(np.int64(3))
        assert shared is standard_basis(3)
        assert type(shared.dim) is int

    @pytest.mark.parametrize("d", [1, 0, np.int64(1)])
    def test_invalid_dimension_raises_on_every_call(self, d):
        for _ in range(2):
            with pytest.raises(InvalidDimension):
                standard_basis(d)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_shared_basis_bitwise_equal_to_a_fresh_build(self, d):
        fresh = basis._gell_mann.__wrapped__(d)
        assert fresh is not standard_basis(d)
        np.testing.assert_array_equal(
            standard_basis(d).elements.view(float), fresh.elements.view(float)
        )

    def test_shared_elements_are_read_only(self):
        with pytest.raises(ValueError):
            standard_basis(3).elements[0, 0, 1] = 7.0


class TestValidateBasis:
    """``OperatorBasis`` is the one check on a basis stack."""

    def test_standard_passes(self):
        elements = standard_basis(2).elements
        assert np.max(np.abs(np.einsum("aii->a", elements))) <= 1e-15
        assert np.max(np.abs(_gram(elements) - np.eye(3))) <= 1e-15

    def test_doubled_element_fails(self):
        elements = standard_basis(2).elements.copy()
        elements[0] *= 2.0
        # Tr((2F)^dagger (2F)) = 4, so the Gram deviation is 3.
        with pytest.raises(ShapeMismatch, match=r"max Gram deviation 3\.000e\+00"):
            OperatorBasis(dim=2, elements=elements)

    def test_identity_element_fails_trace(self):
        d = 3
        elements = standard_basis(d).elements.copy()
        elements[0] = np.eye(d) / np.sqrt(d)
        # Tr(I / sqrt(3)) = sqrt(3).
        with pytest.raises(ShapeMismatch, match=r"max trace deviation 1\.732e\+00"):
            OperatorBasis(dim=d, elements=elements)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            OperatorBasis(dim=2, elements=np.zeros((3, 2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_element(self, bad):
        elements = standard_basis(2).elements.copy()
        elements[0, 0, 1] = bad
        with pytest.raises(NonFinite):
            OperatorBasis(dim=2, elements=elements)

    def test_dimension_one(self):
        with pytest.raises(InvalidDimension):
            OperatorBasis(dim=1, elements=np.zeros((0, 1, 1)))


class TestOperatorBasis:
    def test_ignores_writes_to_the_callers_elements(self):
        elements = standard_basis(2).elements.copy()
        b = OperatorBasis(dim=2, elements=elements)
        elements[0, 0, 1] = 7.0
        np.testing.assert_array_equal(b.elements, standard_basis(2).elements)
        with pytest.raises(ValueError):
            b.elements[0, 0, 1] = 7.0

    def test_rejects_wrong_count(self):
        with pytest.raises(ShapeMismatch):
            OperatorBasis(dim=2, elements=standard_basis(2).elements[:2])

    @pytest.mark.parametrize("count", [2, 4, 9])
    def test_reconstruct_rejects_wrong_coefficient_count(self, count):
        # The expansion W = 1/2 sum_a w_a F_a is direction_operator.
        with pytest.raises(ShapeMismatch, match="length 3"):
            direction_operator(np.ones(count), standard_basis(2))

    def test_rejects_invalid_elements(self):
        elements = standard_basis(2).elements.copy()
        elements[1] *= 0.5
        with pytest.raises(ShapeMismatch):
            OperatorBasis(dim=2, elements=elements)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_expansion_completeness(self, d):
        rng = np.random.default_rng(100 + d)
        basis = standard_basis(d)
        for _ in range(20):
            k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            coeffs = basis.expansion_coefficients(k)
            rebuilt = direction_operator(2 * coeffs, basis) + np.trace(k) / d * np.eye(d)
            assert np.max(np.abs(rebuilt - k)) <= 1e-12 * max(1.0, np.abs(k).max())

    def test_expansion_of_hermitian_traceless_is_real_on_hermitian_basis(self):
        rng = np.random.default_rng(105)
        basis = standard_basis(3)
        h = random_hermitian(3, rng)
        h -= np.trace(h) / 3 * np.eye(3)
        coeffs = basis.expansion_coefficients(h)
        assert np.max(np.abs(coeffs.imag)) <= 1e-12
