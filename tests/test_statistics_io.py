import json
import math
from itertools import product

import numpy as np
import pytest

from bellbound import (
    ChSlice,
    MeasurementSet,
    ParseError,
    ProbabilityTable,
    RangeError,
    SchemaError,
    ch_slice,
    load,
    maximally_entangled_state,
    random_measurement_set,
    random_nosignaling_table,
    random_two_qubit_state,
    save,
    schmidt_state,
    simulate,
    uniform_table,
    validate,
)

from conftest import DEMO_SLICE


class TestSimulate:
    def test_product_state_all_z(self):
        m = MeasurementSet.from_polar_angles(0.0, 0.0, 0.0, 0.0)
        table = simulate(schmidt_state(0.0), m)
        for x in range(2):
            for y in range(2):
                assert table.prob(0, 0, x, y) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_entangled_perfect_correlations(self):
        m = MeasurementSet.from_polar_angles(0.0, 0.0, 0.0, 0.0)
        table = simulate(maximally_entangled_state(), m)
        assert table.prob(0, 0, 0, 0) == pytest.approx(0.5, abs=1e-15)
        assert table.prob(1, 1, 0, 0) == pytest.approx(0.5, abs=1e-15)
        assert table.prob(0, 1, 0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_partially_entangled_z_correlation(self):
        m = MeasurementSet.from_polar_angles(0.0, 0.0, 0.0, 0.0)
        table = simulate(schmidt_state(math.pi / 8), m)
        assert table.prob(0, 0, 0, 0) == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-15)

    def test_output_always_validates(self, rng):
        for i in range(20):
            rho = random_two_qubit_state(rng, pure=bool(i % 2))
            table = simulate(rho, random_measurement_set(rng))
            report = validate(table, 1e-10)
            assert report.verdict == "pass"


class TestValidate:
    def test_exact_simulation_passes(self, rng):
        table = simulate(random_two_qubit_state(rng), random_measurement_set(rng))
        report = validate(table, 1e-6)
        assert report.verdict == "pass"
        assert report.normalization_residual <= 1e-12
        assert report.nosignaling_residual <= 1e-12
        assert report.consistency_residual <= 1e-12

    def test_perturbed_entry_fails(self, rng):
        table = simulate(schmidt_state(0.5), MeasurementSet.chsh_optimal())
        p = np.array(table.p)
        p[0, 0, 0, 0] = min(1.0, p[0, 0, 0, 0] + 0.02)
        report = validate(ProbabilityTable(p), 1e-6)
        assert report.verdict == "fail"
        assert report.normalization_residual == pytest.approx(0.02, abs=1e-10)

    def test_uniform_table_passes(self):
        assert validate(uniform_table(), 1e-6).verdict == "pass"

    def test_warn_band(self):
        p = np.array(uniform_table().p)
        p[0, 0, 0, 0] += 5e-6  # above tol, below 10x tol
        report = validate(ProbabilityTable(p), 1e-6)
        assert report.verdict == "warn"

    def test_slice_consistency_residual(self):
        slc = ChSlice(j00=0.6, j01=0.2, j10=0.2, j11=0.2, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        report = validate(slc, 1e-6)
        assert report.verdict == "fail"
        assert report.consistency_residual == pytest.approx(0.1, abs=1e-12)

    def test_slice_below_lower_frechet_bound_fails(self):
        # Zero joints with unit marginals imply p(1,1|x,y) = -1.
        slc = ChSlice(j00=0.0, j01=0.0, j10=0.0, j11=0.0, mA0=1.0, mA1=1.0, mB0=1.0, mB1=1.0)
        report = validate(slc, 1e-6)
        assert report.verdict == "fail"
        assert report.consistency_residual == pytest.approx(1.0, abs=1e-12)

    def test_pr_box_slice_fails(self):
        # The PR box reaches CH value 1/2; no quantum state exceeds (sqrt(2) - 1)/2.
        slc = ChSlice(j00=0.5, j01=0.5, j10=0.5, j11=0.0, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)
        report = validate(slc, 1e-6)
        assert report.verdict == "fail"
        assert report.consistency_residual == 0.0
        assert report.tsirelson_residual == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)

    def test_pr_box_table_fails(self):
        # p(a,b|x,y) = 1/2 when a XOR b = x AND y.
        p = np.zeros((2, 2, 2, 2))
        for x, y, a in product(range(2), repeat=3):
            p[x, y, a, a ^ (x & y)] = 0.5
        report = validate(ProbabilityTable(p), 1e-6)
        assert report.normalization_residual == report.nosignaling_residual == 0.0
        assert report.verdict == "fail"

    def test_tsirelson_excess_within_noise_warns(self):
        # The CHSH-optimal maximally entangled experiment sits on Tsirelson's
        # bound; an excess of 5e-6 reads as finite-statistics noise.
        slc = ch_slice(simulate(maximally_entangled_state(), MeasurementSet.chsh_optimal()))
        assert validate(slc, 1e-6).verdict == "pass"
        noisy = ChSlice(**{**vars(slc), "j00": slc.j00 + 5e-6})
        report = validate(noisy, 1e-6)
        assert report.verdict == "warn"
        assert report.tsirelson_residual == pytest.approx(5e-6, abs=1e-9)

    def test_demo_slice_passes(self):
        assert validate(DEMO_SLICE, 1e-6).verdict == "pass"

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            validate(uniform_table(), 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # A NaN tolerance would fail every residual, an infinite one pass them all.
        for stats in (uniform_table(), DEMO_SLICE):
            with pytest.raises(ValueError, match="finite"):
                validate(stats, tol)


class TestChSlice:
    def test_maximally_entangled_computational_basis(self):
        m = MeasurementSet.from_polar_angles(0.0, 0.0, 0.0, 0.0)
        slc = ch_slice(simulate(maximally_entangled_state(), m))
        assert slc.j00 == pytest.approx(0.5, abs=1e-12)
        assert slc.mA0 == pytest.approx(0.5, abs=1e-12)
        assert slc.mB0 == pytest.approx(0.5, abs=1e-12)

    def test_uniform_table_slice(self):
        slc = ch_slice(uniform_table())
        assert slc.joints() == pytest.approx((0.25,) * 4, abs=1e-15)
        assert slc.marginals() == pytest.approx((0.5,) * 4, abs=1e-15)

    def test_out_of_range_field_rejected(self):
        with pytest.raises(RangeError):
            ChSlice(j00=1.2, j01=0.2, j10=0.2, j11=0.2, mA0=0.5, mA1=0.5, mB0=0.5, mB1=0.5)


class TestRandomTables:
    def test_structurally_valid(self, rng):
        for include_pr in (True, False):
            for _ in range(50):
                table = random_nosignaling_table(rng, include_pr_boxes=include_pr)
                report = validate(table, 1e-10)
                assert report.verdict == "pass"


class TestLoadSave:
    def test_table_round_trip_is_bit_exact(self, tmp_path, rng):
        for i in range(20):
            table = random_nosignaling_table(rng)
            path = tmp_path / f"table_{i}.json"
            save(table, path)
            loaded = load(path)
            assert isinstance(loaded, ProbabilityTable)
            assert np.array_equal(loaded.p, table.p)

    def test_slice_round_trip_is_bit_exact(self, tmp_path):
        awkward = ChSlice(
            j00=1.0 / 3.0,
            j01=0.1,
            j10=2.0 / 7.0,
            j11=0.05,
            mA0=1.0 / 3.0 + 1e-16,
            mA1=0.5,
            mB0=0.4,
            mB1=math.sqrt(2.0) / 3.0,
        )
        path = tmp_path / "slice.json"
        save(awkward, path)
        loaded = load(path)
        assert loaded == awkward

    def test_demo_slice_file(self, tmp_path):
        save(DEMO_SLICE, tmp_path / "demo.json")
        assert load(tmp_path / "demo.json") == DEMO_SLICE

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load(tmp_path / "missing.json")

    def test_unknown_field_rejected(self, tmp_path):
        payload = {"format": "ch_slice", "extra": 1.0}
        payload.update({k: 0.25 for k in ("j00", "j01", "j10", "j11")})
        payload.update({k: 0.5 for k in ("mA0", "mA1", "mB0", "mB1")})
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match="unknown"):
            load(path)

    def test_missing_field_rejected(self, tmp_path):
        payload = {"format": "ch_slice", "j00": 0.25}
        path = tmp_path / "missing_field.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match="missing"):
            load(path)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"format": "full", "p": [0.25] * 15}), encoding="utf-8")
        with pytest.raises(SchemaError):
            load(path)

    def test_out_of_range_probability_rejected(self, tmp_path):
        values = [0.25] * 16
        values[3] = 1.2
        path = tmp_path / "range.json"
        path.write_text(json.dumps({"format": "full", "p": values}), encoding="utf-8")
        with pytest.raises(RangeError):
            load(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "fmt.json"
        path.write_text(json.dumps({"format": "csv"}), encoding="utf-8")
        with pytest.raises(SchemaError, match="format"):
            load(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(SchemaError):
            load(path)

    def test_description_field_allowed(self, tmp_path):
        path = tmp_path / "desc.json"
        save(uniform_table(), path, description="white noise")
        loaded = load(path)
        assert isinstance(loaded, ProbabilityTable)

    def test_full_file_ordering_is_xyab(self, tmp_path):
        # Entry (x=1, y=0, a=0, b=1) sits at flat index 8x + 4y + 2a + b = 9.
        values = [0.0] * 16
        for x in range(2):
            for y in range(2):
                values[8 * x + 4 * y] = 1.0
        values[8], values[9] = 0.25, 0.75
        path = tmp_path / "order.json"
        path.write_text(json.dumps({"format": "full", "p": values}), encoding="utf-8")
        table = load(path)
        assert table.prob(0, 1, 1, 0) == 0.75
