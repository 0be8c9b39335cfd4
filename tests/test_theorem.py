"""The paper's theorem as a property of the library: a CP generator shows no
negativity, and a non-CP one gets a witness whose overlap rate is half of
lambda_min(C).

A Lindblad generator is completely positive, so the verdict says so, no
witness exists, and the doubled dynamics keeps every entangled pair's evolved
state positive semidefinite on the default grid.  The property runs at the
default tolerance only: at ``tol = 0`` roundoff in a rank-deficient ``C``
reads as negative until the scale-free cutoff of ROADMAP item 3 lands.  User
grids out to ``t = 1e3`` wait for item 7, whose propagator accuracy check
such long grids need.  On the non-CP side only the witness's rate is checked:
that the default grid finds the negativity it certifies waits for item 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab import (
    LindbladGenerator,
    NoNegativeDirection,
    WitnessCandidate,
    construct_witness,
    direction_operator,
    is_completely_positive,
    lindblad_to_gks,
    negativity_scan,
    standard_basis,
)
from cplab.linalg import POSITIVITY_TOL

from helpers import random_generator, random_hermitian, random_pure_vector, random_traceless_hermitian


def _orthogonal_to(psi, rng):
    """A random unit vector orthogonal to ``psi``."""
    u = psi / np.linalg.norm(psi)
    phi = random_pure_vector(psi.size, rng)
    phi = phi - np.vdot(u, phi) * u
    return phi / np.linalg.norm(phi)


# Few examples at d >= 5 keep the property to a fraction of a second.
@pytest.mark.parametrize("d, examples", [(2, 12), (3, 12), (4, 12), (5, 4), (6, 4)])
def test_cp_generator_shows_no_negativity(d, examples):
    @settings(max_examples=examples, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
        jumps=st.integers(1, 3),
    )
    def holds(seed, log_scale, jumps):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        ops = []
        for _ in range(jumps):
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append(np.sqrt(scale) * (v - np.trace(v) / d * np.eye(d)))
        hamiltonian = scale * random_traceless_hermitian(d, rng)
        lind = LindbladGenerator(dim=d, hamiltonian=hamiltonian, jump_ops=tuple(ops))
        g = lindblad_to_gks(lind, standard_basis(d))

        assert is_completely_positive(g, tol=POSITIVITY_TOL).is_cp
        assert isinstance(construct_witness(g, rng=rng, tol=POSITIVITY_TOL), NoNegativeDirection)

        entangled = np.eye(d).reshape(-1) / np.sqrt(d)
        evals, evecs = np.linalg.eigh(g.coeff)
        w = evecs[:, np.argmin(np.abs(evals))]
        near_zero = direction_operator(w, g.basis).reshape(-1, order="F")
        for psi in (entangled, near_zero):
            scan = negativity_scan(g, psi, _orthogonal_to(psi, rng), tol=POSITIVITY_TOL)
            assert scan.first_negative_time is None

    holds()


@pytest.mark.parametrize("r", [1e-4, 1e-2, 0.5])
@pytest.mark.parametrize("d", range(2, 9))
def test_non_cp_generator_gets_a_witness_at_half_lambda_min(d, r):
    """C with ||C||_2 = 1 and lambda_min(C) = -r, under a random traceless H: the witness's
    quadratic form is lambda_min(C) and its overlap rate half of it, negative."""
    n = d * d - 1
    for draw in range(3):
        rng = np.random.default_rng([d, int(1 / r), draw])
        c = random_hermitian(n, rng)
        c /= np.linalg.norm(c, 2)
        c -= (np.linalg.eigvalsh(c)[0] + r) * np.eye(n)
        lam_min = np.linalg.eigvalsh(c)[0]
        result = construct_witness(random_generator(d, rng, coeff=c), rng=rng, tol=POSITIVITY_TOL)
        assert isinstance(result, WitnessCandidate)
        assert result.quadratic_form == pytest.approx(lam_min, rel=0, abs=1e-12)
        assert result.value < 0
        assert result.value == pytest.approx(0.5 * result.quadratic_form, rel=1e-9, abs=0)
