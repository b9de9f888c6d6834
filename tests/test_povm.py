"""Brackets for any measurement, not only rank-1 projective ones.

A two-outcome qubit effect 0 <= E <= I is a mixture of rank-1 projectors, 0
and I, and the tilted functional is linear in each party's effects, so its
maximum over effects is reached at those extreme points.  A setting at 0 or I
leaves its party one nontrivial measurement, whose correlations are local, so
the tilted value is at most 0 there.  So no general measurement (POVM) does
better than the projective maximum the library computes, once that maximum is
floored at 0 (Masanes, PRL 97, 050503 (2006), gives the same reduction).

The oracles here are test code only: a Born rule for general effects built
with Kronecker products, and a see-saw over effects whose best response is the
projector onto the positive part of each setting's effective 2x2 operator, so
that it can end on effects of rank 0, 1 or 2.
"""

import math
from itertools import product

import numpy as np
import pytest

from bellbound import (
    TAU_MAXENT_CUTOFF,
    ProbabilityTable,
    assemble_report,
    ch_value,
    coefficients,
    concurrence,
    critical_gamma,
    random_measurement_set,
    random_two_qubit_state,
    schmidt_state,
    seesaw_max_violation,
    tau_obs,
)

from conftest import kron_born_table, projector_from_bloch
from test_optimizer import multistart_reference

I2 = np.eye(2)
TRIVIAL_EFFECTS = (np.zeros((2, 2)), I2)


def povm_born_table(rho, alice, bob) -> np.ndarray:
    """p[x, y, a, b] = tr(rho A_x^a (x) B_y^b) for effects A_x^0 = alice[x],
    A_x^1 = I - alice[x] and Bob's alike, one Kronecker product and trace per
    entry as in ``invariants.kron_born_table``.  Entries are clipped to
    [0, 1], since a zero probability can round to -1e-17, which
    :class:`ProbabilityTable` refuses."""
    p = np.empty((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        effect_a = alice[x] if a == 0 else I2 - alice[x]
        effect_b = bob[y] if b == 0 else I2 - bob[y]
        p[x, y, a, b] = np.trace(rho.matrix @ np.kron(effect_a, effect_b)).real
    return np.clip(p, 0.0, 1.0)


def povm_value(rho, alice, bob, tau) -> float:
    """The tilted functional: the library's coefficients contracted with the POVM Born table."""
    return float(np.sum(coefficients(tau).beta * povm_born_table(rho, alice, bob)))


def random_effect(rng) -> np.ndarray:
    """A random effect 0 <= E <= I: a Haar-random eigenbasis with eigenvalues uniform in [0, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return (q * rng.uniform(0.0, 1.0, size=2)) @ q.conj().T


def positive_part_projector(op) -> np.ndarray:
    """The projector onto the span of the positive eigenvectors of a Hermitian 2x2 operator (rank 0, 1 or 2)."""
    w, v = np.linalg.eigh(0.5 * (op + op.conj().T))
    kept = v[:, w > 0.0]
    return kept @ kept.conj().T


def operator_seesaw(rho, tau, bob, iterations=300):
    """Alternating best responses over effects, from Bob's effects ``bob``.

    The functional is tr(rho W) with
    W = E0 (x) (F0 + F1 - tau I) + E1 (x) (F0 - F1) - tau I (x) F0
      = (E0 + E1 - tau I) (x) F0 + (E0 - E1) (x) F1 - tau E0 (x) I,
    so each party's best effect for a setting is the projector onto the
    positive part of that setting's partial trace against the other party's
    effects.  Stops once a round raises the value by less than 1e-14, or
    after ``iterations`` rounds.  Returns the value of the final effects, read
    through :func:`povm_value`, and Alice's and Bob's effects.
    """
    r = rho.matrix.reshape(2, 2, 2, 2)  # [a, b, a', b'] of |a b><a' b'|
    rho_alice = np.einsum("abcb->ac", r)
    previous = -math.inf
    for _ in range(iterations):
        alice = [positive_part_projector(np.einsum("abcd,db->ac", r, g)) for g in (bob[0] + bob[1] - tau * I2, bob[0] - bob[1])]
        pulls = [np.einsum("abcd,ca->bd", r, k) for k in (alice[0] + alice[1] - tau * I2, alice[0] - alice[1])]
        bob = [positive_part_projector(n) for n in pulls]
        value = np.trace(bob[0] @ pulls[0] + bob[1] @ pulls[1]).real - tau * np.trace(rho_alice @ alice[0]).real
        if value - previous < 1e-14:
            break
        previous = value
    return povm_value(rho, alice, bob, tau), alice, bob


def is_trivial(effect) -> bool:
    return any(np.allclose(effect, e, atol=1e-12) for e in TRIVIAL_EFFECTS)


class TestPovmOracle:
    def test_born_table_of_projectors_is_the_projective_table(self, rng):
        rho = random_two_qubit_state(rng)
        m = random_measurement_set(rng)
        alice, bob = ([projector_from_bloch(v, 0) for v in pair] for pair in (m.alice, m.bob))
        assert np.allclose(povm_born_table(rho, alice, bob), kron_born_table(rho, m), atol=1e-15, rtol=0.0)

    def test_general_measurements_never_beat_the_projective_maximum(self):
        # Pure states at even indices, mixed at odd ones, at random tilts.
        # For a mixed state the reference is also the best of 40 Newton
        # starts, so that a local maximum of the see-saw (ROADMAP item 10)
        # cannot pass for a gain of the general measurements.
        rng = np.random.default_rng(11)
        reached = ended_trivial = 0
        for k in range(24):
            rho = random_two_qubit_state(rng, pure=k % 2 == 0)
            tau = float(rng.uniform(1.0, 1.5))
            reference = seesaw_max_violation(rho, tau).value.value
            if k % 2:
                reference = max(reference, multistart_reference(rho, tau))
            runs = [operator_seesaw(rho, tau, [random_effect(rng), random_effect(rng)]) for _ in range(4)]
            best = max(value for value, _, _ in runs)
            assert best <= max(reference, 0.0) + 1e-12
            reached += best >= max(reference, 0.0) - 1e-9
            ended_trivial += sum(any(is_trivial(e) for e in (*alice, *bob)) for _, alice, bob in runs)
        # The oracle is a real search: it reaches the maximum on most states,
        # and its best responses leave the rank-1 projectors.
        assert reached >= 18
        assert ended_trivial >= 24


class TestPovmBrackets:
    def test_mixed_in_effects_keep_the_bracket(self):
        # Optimal projective measurements at a random tilt: of a Schmidt state
        # just below the tilt's critical angle, whose bracket is tight, or of
        # a seeded state.  One of the four effects is mixed with a random
        # effect, 0 or I, with a weight log-uniform in [1.5e-6, 0.15].
        rng = np.random.default_rng(12)
        violating = numeric = 0
        closest = math.inf
        for i in range(24):
            tau = float(rng.uniform(TAU_MAXENT_CUTOFF, 1.49))
            if i % 2 == 0:
                rho = schmidt_state(critical_gamma(tau).gamma_c - 1e-6)
            else:
                rho = random_two_qubit_state(rng, pure=i % 4 == 1)
            m = seesaw_max_violation(rho, tau).measurements
            truth = concurrence(rho)
            projective = [projector_from_bloch(v, 0) for v in (*m.alice, *m.bob)]
            for _ in range(8):
                effects = list(projective)
                k = int(rng.integers(4))
                weight = 0.15 * 10.0 ** float(rng.uniform(-5.0, 0.0))
                other = (random_effect(rng), *TRIVIAL_EFFECTS)[int(rng.integers(3))]
                effects[k] = (1.0 - weight) * effects[k] + weight * other
                table = ProbabilityTable(povm_born_table(rho, effects[:2], effects[2:]))
                report = assemble_report(table, projective=False, numeric_ub=True)
                assert report.lower_bound <= truth + 1e-12
                for upper in report.present_upper_bounds():
                    assert truth <= upper + 1e-12
                    closest = min(closest, upper - truth)
                violating += report.s_ch_obs > 0.0
                numeric += report.upper_bound_numeric is not None
        # Most tables violate and get a numeric bound, and the closest upper
        # bound lies within 1e-5 of C: the check has little room to pass.
        assert violating >= 96 and numeric >= 96
        assert closest < 1e-5

    @pytest.mark.parametrize("setting", range(4))
    def test_a_trivial_setting_never_violates(self, setting):
        # Setting 0 or 1 of Alice, or 0 or 1 of Bob, at 0 or I; the other
        # three effects random or optimal projectors.
        rng = np.random.default_rng(13 + setting)
        for k in range(12):
            rho = random_two_qubit_state(rng, pure=k % 2 == 0)
            if k % 3 == 0:
                m = seesaw_max_violation(rho, 1.0).measurements
                effects = [projector_from_bloch(v, 0) for v in (*m.alice, *m.bob)]
            else:
                effects = [random_effect(rng) for _ in range(4)]
            effects[setting] = TRIVIAL_EFFECTS[k % 2]
            table = ProbabilityTable(povm_born_table(rho, effects[:2], effects[2:]))
            assert ch_value(table) <= 1e-12
            assert tau_obs(table.ch_slice) is None
