"""Acceptance gate: every release criterion and every ``verify`` invariant.

Each invariant of :data:`bellbound.invariants.INVARIANTS` runs as its own
test, named after it, at ``verify``'s default seed and tolerance; criterion 1
is such an invariant.  Criteria 4 and 9 repeat two invariants on tables drawn
from the test seed.  Each test prints one pass/fail line (visible
with ``pytest -s`` or in captured output); stated runtime limits are asserted
alongside the numeric tolerances.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import bellbound as bb
from bellbound.cli import DEFAULT_SEED
from bellbound.cli import main as cli_main
from bellbound.invariants import INVARIANTS, maxent_cutoff
from bellbound.statistics_io import HARD_VALIDATION_TOL

from conftest import in_plane_grid_max_violation

TSIRELSON = 1.0 / math.sqrt(2.0) - 0.5
# Criteria checked by a verify invariant: its name -> (criterion number, runtime limit in s).
INVARIANT_CRITERIA = {
    "bundled demo slice reproduces its bounds": (1, 1.0),
}


@contextmanager
def criterion(number: int | None, name: str, runtime_limit: float | None = None):
    label = "invariant" if number is None else f"criterion {number:02d}"
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"runtime {elapsed:.1f}s exceeds limit {runtime_limit}s"
    print(f"[{label}] PASS {name} ({elapsed:.2f}s)")


@pytest.mark.parametrize("name, check", INVARIANTS, ids=[name for name, _ in INVARIANTS])
def test_verify_invariant(name, check):
    number, runtime_limit = INVARIANT_CRITERIA.get(name, (None, None))
    with criterion(number, name, runtime_limit):
        ok, detail = check(DEFAULT_SEED, HARD_VALIDATION_TOL)
        assert ok, detail


def test_criterion_02_tsirelson_point():
    with criterion(2, "tsirelson point of the untilted functional", 10.0):
        optimum = bb.global_max_violation(1.0)
        assert optimum.s_q == pytest.approx(0.2071068, abs=1e-6)
        assert optimum.gamma_star == pytest.approx(math.pi / 4, abs=1e-3)


def test_criterion_03_maximally_entangled_cutoff_grid():
    with criterion(3, "maximally entangled state silent on the cutoff grid", 120.0):
        grid = np.linspace(1.2072, 1.499, 30)
        rows = maxent_cutoff(grid, 100)
        failures = [float(t) for t, (v, r) in zip(grid, rows) if not (v <= 1e-9 and r <= 1e-12)]
        assert not failures, f"failures at tilts {failures}"


def test_criterion_04_decomposition_identity(rng):
    with criterion(4, "decomposition identity on 1000 random tables"):
        worst = 0.0
        for _ in range(1000):
            table = bb.random_nosignaling_table(rng)
            tau = float(rng.uniform(1.0, 1.5))
            direct = bb.evaluate_classical(table, tau).value
            decomposed = bb.evaluate_from_ch(table, tau).value
            worst = max(worst, abs(direct - decomposed))
        assert worst <= 1e-12


def test_criterion_05_pure_state_saturation(rng):
    with criterion(5, "untilted optimum saturated by pure states (50 random angles)"):
        for _ in range(50):
            gamma = float(rng.uniform(0.0, math.pi / 4))
            value = bb.seesaw_max_violation(bb.schmidt_state(gamma), 1.0).value.value
            expected = (math.sqrt(1.0 + math.sin(2.0 * gamma) ** 2) - 1.0) / 2.0
            assert value == pytest.approx(expected, abs=1e-6)


def test_criterion_06_analytic_dominance():
    with criterion(6, "analytic caps dominate see-saw values and the critical curve"):
        for gamma in np.linspace(0.0, math.pi / 4, 20):
            for tau in np.linspace(1.0, 1.499, 20):
                value = bb.seesaw_max_violation(bb.schmidt_state(float(gamma)), float(tau)).value.value
                cap = bb.pure_state_value_cap(float(gamma), float(tau))
                assert value <= cap + 1e-9
        taus = np.linspace(bb.TAU_MAXENT_CUTOFF, 1.49, 50)
        criticals = [bb.critical_gamma(float(t)).c_cr for t in taus]
        for t, c_cr in zip(taus, criticals):
            assert c_cr <= bb.upper_bound_analytic(float(t)) + 1e-6
        for earlier, later in zip(criticals, criticals[1:]):
            assert later <= earlier + 1e-8  # nonincreasing along the grid


def test_criterion_07_bracketing_soundness(rng):
    with criterion(7, "bounds bracket the true concurrence on 200 random experiments"):
        failures = 0
        for _ in range(200):
            gamma = float(rng.uniform(0.0, math.pi / 4))
            table = bb.simulate(bb.schmidt_state(gamma), bb.random_measurement_set(rng))
            report = bb.assemble_report(table, projective=True)
            truth = math.sin(2.0 * gamma)
            if report.lower_bound > truth + 1e-6:
                failures += 1
                continue
            if report.tau_obs is not None and truth > bb.upper_bound_analytic(report.tau_obs) + 1e-6:
                failures += 1
                continue
            if truth > report.upper_bound_marginal + 1e-6:
                failures += 1
        assert failures == 0


def test_criterion_08_oracle_equivalence():
    with criterion(8, "see-saw agrees with the in-plane grid oracle on the 5x5 grid", 300.0):
        for gamma in np.linspace(0.1, math.pi / 4, 5):
            for tau in np.linspace(1.0, 1.45, 5):
                seesaw = bb.seesaw_max_violation(
                    bb.schmidt_state(float(gamma)), float(tau)
                ).value.value
                oracle = in_plane_grid_max_violation(float(gamma), float(tau))
                assert seesaw == pytest.approx(oracle, abs=1e-5)


def test_criterion_09_trivial_tilt_nonpositivity(rng):
    with criterion(9, "nonpositivity at tilt 3/2 on 1000 random tables"):
        worst = -math.inf
        for _ in range(1000):
            table = bb.random_nosignaling_table(rng)
            worst = max(
                worst, bb.evaluate_classical(table, 1.5, allow_trivial_regime=True).value
            )
        assert worst <= 1e-12


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "repeated curves and seeded verify runs are byte-identical"):
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            code = cli_main(
                ["curves", "--tau-min", "1.0", "--tau-max", "1.3", "--grid", "4",
                 "--output", str(d)]
            )
            assert code == 0
        capsys.readouterr()
        for name in ("max_violation_curve.csv", "concurrence_curve.csv"):
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second and len(first) > 0
        outputs = []
        for _ in range(2):
            assert cli_main(["verify", "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
