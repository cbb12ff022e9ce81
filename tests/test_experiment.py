"""Scenario plumbing, sweeps and serialization.

Evolution-heavy paths run here on a deliberately small box (half width
32, 1024 points, fixed barrier height) so the whole file stays in the
seconds range; the production-size runs live in the acceptance tests.
"""

import io
import json
import math
import re
import tracemalloc
from dataclasses import fields, replace

import pytest

import pairstats
from pairstats import experiment, propagator
from pairstats.errors import (
    ConfigurationError,
    MeasurementTimeoutError,
    PairStatsError,
    PauliDegeneracyError,
    PrematureMeasurementError,
)
from pairstats.experiment import (
    CSV_COLUMNS,
    SWEEP_PARAMETERS,
    CountingReport,
    ResultRow,
    ScenarioConfig,
    SweepConfig,
    apply_sweep_parameter,
    compare_with_counting,
    config_from_dict,
    config_to_dict,
    default_scenario,
    evolve_pair_to_measurement,
    resolve_barrier,
    rows_to_csv,
    run_resolved,
    run_scenario,
    summary_dict,
    sweep,
    write_summary_json,
)
from pairstats.grid import WavepacketSpec, make_gaussian
from pairstats.occupancy import PAIR_LABELS
from pairstats.propagator import BarrierPotential, PropagationParams, evolve, measurement_ready
from pairstats.twoparticle import BOSON, FERMION, joint_probabilities, make_pair


def small_scenario(**overrides) -> ScenarioConfig:
    """Fast fixed-height pair run: one packet flight takes ~0.5 s."""
    base = ScenarioConfig(
        grid_half_width=64.0,
        grid_points=2048,
        packet_center=-10.0,
        packet_wavenumber=8.0,
        packet_sigma=1.0,
        separation=3.0,
        sign=BOSON,
        barrier_width=0.5,
        barrier_height=26.787825,
        dt=5e-4,
        max_steps=12_000,
        check_every=200,
    )
    return replace(base, **overrides)


class TestScenarioConfig:
    def test_default_scenario_is_valid(self):
        config = default_scenario()
        config.validate()
        assert config.barrier_height is None
        assert config.sign == BOSON

    def test_packet_b_sits_behind_packet_a(self):
        config = small_scenario(separation=3.0, wavenumber_offset=0.25)
        spec_b = config.spec_b()
        assert spec_b.center == -13.0
        assert spec_b.wavenumber == 8.25
        assert not config.identical_packets()
        assert small_scenario(separation=0.0).identical_packets()

    def test_rejects_bad_sign(self):
        with pytest.raises(ConfigurationError, match="sign"):
            small_scenario(sign=2).validate()

    def test_rejects_negative_separation(self):
        with pytest.raises(ConfigurationError, match="separation"):
            small_scenario(separation=-1.0).validate()

    def test_rejects_packet_near_edge(self):
        with pytest.raises(ConfigurationError, match="support margin"):
            small_scenario(packet_center=-59.0).validate()

    def test_rejects_packet_b_near_edge(self):
        # packet A fits; the separated partner does not
        with pytest.raises(ConfigurationError, match="support margin"):
            small_scenario(packet_center=-50.0, separation=9.0).validate()

    def test_rejects_unstable_step(self):
        with pytest.raises(Exception, match="kinetic phase"):
            small_scenario(dt=2.6e-3).validate()

    def test_rejects_bad_loop_controls(self):
        with pytest.raises(ConfigurationError, match="check_every"):
            small_scenario(check_every=0).validate()
        with pytest.raises(ConfigurationError, match="max_steps"):
            small_scenario(max_steps=0).validate()

    def test_rejects_bad_calibration_controls(self):
        with pytest.raises(ConfigurationError, match="target"):
            small_scenario(calibration_target=0.0).validate()
        with pytest.raises(ConfigurationError, match="tol"):
            small_scenario(calibration_tol=0.0).validate()

    def test_rejects_bad_stability_fractions(self):
        for bad in ((-0.5,), (0.5, 0.25), (0.5, 0.5)):
            with pytest.raises(ConfigurationError, match="stability fractions"):
                small_scenario(stability_fractions=bad).validate()
        small_scenario(stability_fractions=(0.25, 0.5)).validate()

    def test_rejects_grid_over_the_memory_cap(self):
        with pytest.raises(ConfigurationError, match="points must be <= 1048576"):
            small_scenario(grid_points=2**21).validate()

    def test_rejects_non_finite_floats(self):
        config = small_scenario()
        float_fields = [
            f.name for f in fields(config) if isinstance(getattr(config, f.name), float)
        ]
        assert "barrier_height" in float_fields and "barrier_amplitude_max" in float_fields
        for name in float_fields:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                    replace(config, **{name: bad}).validate()
        with pytest.raises(ConfigurationError, match="stability_fractions must be finite"):
            small_scenario(stability_fractions=(0.1, math.inf)).validate()


class TestSweepParameter:
    def test_separation(self):
        cfg = apply_sweep_parameter(small_scenario(), "separation_d", 7.0)
        assert cfg.separation == 7.0

    def test_wavenumber_offset(self):
        cfg = apply_sweep_parameter(small_scenario(), "wavenumber_dk", 0.5)
        assert cfg.wavenumber_offset == 0.5

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            apply_sweep_parameter(small_scenario(), "barrier_height", 1.0)


class TestSweepConfig:
    def test_accepts_known_parameters(self):
        for parameter in SWEEP_PARAMETERS:
            SweepConfig(small_scenario(), parameter, (1.0, 2.0)).validate()

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match="sweep parameter"):
            SweepConfig(small_scenario(), "height", (1.0,)).validate()

    def test_rejects_empty_values(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            SweepConfig(small_scenario(), "separation_d", ()).validate()

    def test_rejects_negative_separations(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            SweepConfig(small_scenario(), "separation_d", (-1.0,)).validate()
        # carrier offsets may be negative
        SweepConfig(small_scenario(), "wavenumber_dk", (-0.5, 0.5)).validate()

    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_rejects_non_finite_values(self, parameter):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="must be finite"):
                SweepConfig(small_scenario(), parameter, (1.0, bad)).validate()


class TestResultRowSerialization:
    def test_csv_line_has_all_columns(self):
        row = ResultRow(param=1.0)
        cells = row.to_csv_line().split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "1"
        assert cells[10] == "error"
        assert cells[-1] == "false"
        assert cells[1] == "nan"

    def test_csv_keeps_twelve_digits(self):
        row = ResultRow(param=1.0 / 3.0, p20=0.123456789012345, valid=True)
        cells = row.to_csv_line().split(",")
        assert cells[0] == "0.333333333333"
        assert cells[1] == "0.123456789012"
        assert cells[-1] == "true"

    def test_rows_to_csv_header(self):
        buf = io.StringIO()
        rows_to_csv([ResultRow(param=2.0)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_dict_mirrors_fields(self):
        row = ResultRow(param=2.0, error="boom", barrier_height=5.0)
        data = row.to_dict()
        assert data["param"] == 2.0
        assert data["error"] == "boom"
        assert data["barrier_height"] == 5.0
        assert data["stability_a"] == []


class TestConfigRoundTrip:
    def test_default_scenario_round_trips(self):
        config = default_scenario()
        assert config_from_dict(config_to_dict(config)) == config

    def test_explicit_height_and_fractions_round_trip(self):
        config = small_scenario(
            sign=FERMION, stability_fractions=(0.25, 0.5), wavenumber_offset=0.125
        )
        data = config_to_dict(config)
        assert data["barrier"]["height"] == pytest.approx(26.787825)
        assert config_from_dict(data) == config

    def test_calibrate_keyword_maps_to_none(self):
        data = config_to_dict(small_scenario())
        data["barrier"]["height"] = "calibrate"
        assert config_from_dict(data).barrier_height is None

    def test_sign_spellings(self):
        data = config_to_dict(small_scenario())
        data["pair"]["sign"] = "fermion"
        assert config_from_dict(data).sign == FERMION
        data["pair"]["sign"] = 1
        assert config_from_dict(data).sign == BOSON
        data["pair"]["sign"] = "anyon"
        with pytest.raises(ConfigurationError, match="sign"):
            config_from_dict(data)

    def test_fraction_spellings(self):
        data = config_to_dict(small_scenario())
        data["measurement"]["stability_fractions"] = "0.25, 0.5"
        assert config_from_dict(data).stability_fractions == (0.25, 0.5)
        data["measurement"]["stability_fractions"] = [0.125]
        assert config_from_dict(data).stability_fractions == (0.125,)

    def test_unknown_section_rejected(self):
        data = config_to_dict(small_scenario())
        data["detector"] = {"efficiency": 1.0}
        with pytest.raises(ConfigurationError, match="unknown config sections"):
            config_from_dict(data)

    def test_unknown_key_rejected(self):
        data = config_to_dict(small_scenario())
        data["packet"]["mass"] = 2.0
        with pytest.raises(ConfigurationError, match=r"unknown keys.*packet"):
            config_from_dict(data)

    def test_missing_required_key_rejected(self):
        data = config_to_dict(small_scenario())
        del data["grid"]["points"]
        with pytest.raises(ConfigurationError, match="missing key 'points'"):
            config_from_dict(data)


class TestRunScenario:
    def test_boson_run_produces_valid_row(self):
        row = run_scenario(small_scenario())
        assert row.error is None
        assert row.valid
        assert row.param == 3.0
        assert row.barrier_height == pytest.approx(26.787825)
        assert row.p20 + row.p02 + row.p11 == pytest.approx(1.0, abs=1e-9)
        assert row.a == pytest.approx(0.5 * (row.p20 + row.p02), abs=1e-15)
        assert row.label in PAIR_LABELS
        assert row.t_meas > 1.25  # at least the barrier flight time
        assert row.norm_drift < 1e-10
        assert row.leakage < 1e-6

    def test_fermion_antibunches_against_boson(self):
        boson = run_scenario(small_scenario(sign=BOSON))
        fermion = run_scenario(small_scenario(sign=FERMION))
        assert fermion.a < boson.a
        assert fermion.a < 0.25 < boson.a

    def test_run_resolved_needs_a_height(self):
        config = small_scenario(barrier_height=None)
        with pytest.raises(ConfigurationError, match="resolve_barrier"):
            run_resolved(config, param_value=0.0)

    def test_resolve_barrier_passthrough_for_fixed_height(self):
        resolved, calibration = resolve_barrier(small_scenario())
        assert calibration is None
        assert resolved == small_scenario()

    def test_stability_check_re_measures_later(self):
        row = run_scenario(small_scenario(stability_fractions=(0.2,)))
        assert len(row.stability_a) == 1
        # the split is frozen after measurement; later reads must agree
        assert row.stability_a[0] == pytest.approx(row.a, abs=5e-3)

    @pytest.mark.parametrize("max_steps", [10_500, 10_499])
    def test_stability_extension_counts_against_max_steps(self, monkeypatch, max_steps):
        # measured at 7000 steps, the fraction 0.5 takes the pair on to 10,500
        extension = []
        real_evolve = experiment.evolve

        def spy(psi, barrier, params, *args, **kwargs):
            extension.append(params.steps)
            return real_evolve(psi, barrier, params, *args, **kwargs)

        monkeypatch.setattr(experiment, "evolve", spy)
        config = small_scenario(stability_fractions=(0.25, 0.5), max_steps=max_steps)
        if max_steps >= 10_500:
            row = run_scenario(config)
            assert row.t_meas == pytest.approx(7000 * config.dt)
            assert extension == [1750, 1750]
        else:
            with pytest.raises(MeasurementTimeoutError,
                               match=r"end at 10500 steps, beyond max_steps 10499 "
                                     r"\(measured at 7000 steps\)"):
                run_scenario(config)
            assert extension == []

    def test_returns_the_pair_measured_before_the_extension(self):
        config = small_scenario(stability_fractions=(0.2,))
        row, pair = run_resolved(config, param_value=config.separation)
        assert pair.psi_a.t == pair.psi_b.t == pytest.approx(row.t_meas, abs=1e-9)
        assert pair.sign == config.sign
        fresh = joint_probabilities(pair, config.barrier_center)
        assert (fresh.p20, fresh.p02, fresh.p11) == (row.p20, row.p02, row.p11)

    def test_identical_packets_share_one_evolution(self, monkeypatch):
        calls = []
        real_evolve = experiment.evolve

        def counting_evolve(psi, *args, **kwargs):
            calls.append(psi.t)
            return real_evolve(psi, *args, **kwargs)

        monkeypatch.setattr(experiment, "evolve", counting_evolve)
        monkeypatch.setattr(propagator, "evolve", counting_evolve)
        config = small_scenario(separation=0.0, stability_fractions=(0.1,))
        row, pair = run_resolved(config, param_value=0.0)
        assert pair.psi_b is pair.psi_a
        # one call per chunk up to t_meas, plus one for the extension
        chunks = round(row.t_meas / (config.dt * config.check_every))
        assert len(calls) == chunks + 1

    def test_measure_sees_only_packets_ready_under_the_config(self):
        # a barrier threshold stricter than the propagator default 1e-6
        base = small_scenario(barrier_amplitude_max=1e-8)
        configs = [apply_sweep_parameter(base, "separation_d", d) for d in (0.0, 2.0, 4.0)]
        barrier = base.barrier()
        yielded = list(evolve_pair_to_measurement(configs, barrier))
        assert sorted(i for i, _ in yielded) == [0, 1, 2]
        assert not any(isinstance(state, PairStatsError) for _, state in yielded)
        for _, (psi_a, psi_b, steps_done, leakage) in yielded:
            for psi in (psi_a, psi_b):
                assert psi.t == pytest.approx(steps_done * base.dt, abs=1e-9)
                assert measurement_ready(psi, barrier, base.barrier_amplitude_max)

    def test_each_pair_is_yielded_at_the_chunk_it_becomes_ready(self):
        base = small_scenario()
        values = (6.0, 0.0, 4.0, 2.0)
        configs = [apply_sweep_parameter(base, "separation_d", d) for d in values]
        yielded = [(i, state[2]) for i, state in
                   evolve_pair_to_measurement(configs, base.barrier())]
        assert yielded == [(1, 5800), (3, 6600), (2, 7400), (0, 8200)]
        rows = sweep(SweepConfig(base, "separation_d", values))
        assert [row.param for row in rows] == list(values)
        assert [row.t_meas for row in rows] == [
            pytest.approx(steps * base.dt) for steps in (8200, 5800, 7400, 6600)]

    def test_unready_stability_packets_are_refused(self):
        # launch states sitting on the barrier, re-measured one step later
        config = small_scenario(stability_fractions=(0.1,))
        grid = config.grid()
        psi_a = make_gaussian(grid, WavepacketSpec(-1.0, 0.0, 0.8))
        psi_b = make_gaussian(grid, WavepacketSpec(-1.5, 0.0, 0.8))
        barrier = BarrierPotential(8.0, 0.5)
        with pytest.raises(PrematureMeasurementError,
                           match=r"packet A is not ready at t = \S+: amplitude \S+ on the barrier"):
            experiment._measure(config, barrier, 0.0, psi_a, psi_b, 10, 0.0)

    def test_pair_yet_to_scatter_is_refused_at_its_stability_time(self):
        # launch states far left of the barrier and moving right, 200 steps
        # on: off the barrier and its lobe far from it, but still inbound
        config = small_scenario(packet_center=-30.0, stability_fractions=(0.1,))
        spec_a = config.spec_a()
        psi_a = make_gaussian(config.grid(), spec_a)
        psi_b = propagator.compose_b(psi_a, spec_a, config.separation, 0.0)
        with pytest.raises(PrematureMeasurementError,
                           match=r"packet A is not ready at t = \S+: mass \S+ "
                                 r"still moving towards the barrier"):
            experiment._measure(config, config.barrier(), 3.0, psi_a, psi_b, 2000, 0.0)

    def test_b_launched_at_the_box_edge_is_measured_after_it_scatters_and_invalid(self):
        # B starts 6.05 sigma from the left edge: its launch tail already
        # exceeds EDGE_AMPLITUDE_MAX there, and it reaches the barrier at
        # t ~ 6.5, long after A (and so the B composed from A) cleared it
        config = small_scenario(packet_sigma=2.0, packet_center=-24.0, separation=27.9,
                                barrier_amplitude_max=1e-3, max_steps=40_000)
        launch_b = make_gaussian(config.grid(), config.spec_b())
        edge_b = max(abs(launch_b.values[0]), abs(launch_b.values[-1]))
        assert edge_b > propagator.EDGE_AMPLITUDE_MAX
        row, _ = run_resolved(config, param_value=config.separation)
        assert row.error is None and not row.valid
        assert row.leakage == pytest.approx(edge_b, rel=1e-6)
        assert row.t_meas > abs(config.spec_b().center) / config.packet_wavenumber

    @pytest.mark.parametrize("half_width, fractions", [(34.0, ()), (38.0, (0.1,))])
    def test_b_at_the_box_edge_at_a_wavenumber_offset_is_invalid(self, half_width, fractions):
        # at dk = 1.5 B's transmitted lobe runs ahead of A's and reaches the
        # box edge by the measurement (half width 34) or only by the
        # stability time (38), while A's lobes stay clear of the edges
        config = small_scenario(grid_half_width=half_width, separation=0.0,
                                stability_fractions=fractions)
        assert run_scenario(config).valid
        row, pair = run_resolved(replace(config, wavenumber_offset=1.5), param_value=1.5)
        assert row.error is None and not row.valid
        edge_at_measurement = propagator.edge_amplitude(pair.psi_b)
        if fractions:
            assert edge_at_measurement <= propagator.EDGE_AMPLITUDE_MAX < row.leakage
        else:
            assert row.leakage == edge_at_measurement > propagator.EDGE_AMPLITUDE_MAX

    def test_timeout_is_reported(self):
        with pytest.raises(MeasurementTimeoutError):
            run_scenario(small_scenario(max_steps=400))

    def test_identical_pair_timeout_names_packet_a_once(self):
        # at 5600 steps A holds 1.1e-6 on the barrier: drained enough to
        # compose B from, not yet ready, and B is A
        with pytest.raises(MeasurementTimeoutError) as caught:
            run_scenario(small_scenario(separation=0.0, max_steps=5600))
        assert re.fullmatch(
            r"packets did not clear the barrier within 5600 steps \(t = 2\.8\); "
            r"packet A: barrier amplitude \S+ at the last chunk, peak edge amplitude \S+",
            str(caught.value))

    def test_fermion_coincident_launch_is_degenerate(self, monkeypatch):
        def no_flight(*_, **__):
            raise AssertionError("flew a pair refused at launch")

        monkeypatch.setattr(propagator, "evolve", no_flight)
        with pytest.raises(PauliDegeneracyError, match="degenerate"):
            run_scenario(small_scenario(sign=FERMION, separation=0.0))


class TestSweep:
    def test_error_rows_recorded_not_raised(self):
        # d = 3 is measured at 7000 steps, d = 6 would be at 8200
        config = SweepConfig(
            base=small_scenario(sign=FERMION, max_steps=7800),
            parameter="separation_d",
            values=(0.0, 3.0, 6.0),
        )
        rows = sweep(config)
        assert len(rows) == 3
        assert rows[0].param == 0.0
        assert not rows[0].valid
        assert "PauliDegeneracyError" in rows[0].error
        assert math.isnan(rows[0].a)
        assert rows[1].valid
        assert rows[1].error is None
        assert not rows[2].valid and math.isnan(rows[2].a)
        # the timeout says how far A got: drained off the barrier and clear
        # of the box edges, so it is B that is late, and so it says how far
        # B got: still on the barrier
        found = re.fullmatch(
            r"MeasurementTimeoutError: packets did not clear the barrier within 7800 steps "
            r"\(t = 3\.9\); packet A: barrier amplitude (\S+) at the last chunk, "
            r"peak edge amplitude (\S+); packet B: barrier amplitude (\S+) at the last chunk, "
            r"peak edge amplitude (\S+)", rows[2].error)
        assert found
        on_barrier, edge, b_on_barrier, b_edge = map(float, found.groups())
        assert on_barrier <= propagator.COMPOSE_BARRIER_AMPLITUDE_MAX
        assert 0.0 < edge <= propagator.EDGE_AMPLITUDE_MAX
        assert b_on_barrier > config.base.barrier_amplitude_max
        assert 0.0 < b_edge <= propagator.EDGE_AMPLITUDE_MAX

    def test_rows_keep_requested_order(self):
        config = SweepConfig(
            base=small_scenario(),
            parameter="separation_d",
            values=(4.0, 2.0, 3.0),
        )
        rows = sweep(config)
        assert [row.param for row in rows] == [4.0, 2.0, 3.0]

    @staticmethod
    def single_runs(base, parameter, values):
        """Each value run on its own through run_resolved, errors recorded as in a sweep."""
        rows = []
        for value in values:
            cfg = apply_sweep_parameter(base, parameter, value)
            try:
                cfg.validate()
                rows.append(run_resolved(cfg, param_value=value)[0])
            except PairStatsError as err:
                rows.append(ResultRow(param=value, error=f"{type(err).__name__}: {err}",
                                      barrier_height=base.barrier_height))
        return rows

    @pytest.mark.parametrize("base, parameter, values", [
        # Pauli-degenerate d = 0, a B outside the box, and normal points
        (small_scenario(sign=FERMION), "separation_d", (3.0, 0.0, 50.0, 1.5)),
        # identical packets at d = 0 share A, also through the stability extension
        (small_scenario(stability_fractions=(0.1, 0.2)), "separation_d", (2.0, 0.0, 4.0)),
        (small_scenario(separation=0.0), "wavenumber_dk", (0.25, 0.0, 0.5)),
    ])
    def test_rows_match_single_runs(self, base, parameter, values):
        expected = self.single_runs(base, parameter, values)
        assert any(row.error for row in expected) == (base.sign == FERMION)
        rows = sweep(SweepConfig(base, parameter, values))
        assert [r.to_csv_line() for r in rows] == [r.to_csv_line() for r in expected]
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in rows] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in expected
        ]

    @pytest.mark.parametrize("parameter, values", [
        ("separation_d", (0.0, 1.37, 3.0, 4.5)),
        # B at every offset is composed from A: no source packet flies
        ("wavenumber_dk", (0.0, 0.25, -0.5, 0.75)),
    ])
    def test_sweep_builds_and_evolves_only_packet_a(self, monkeypatch, parameter, values):
        base = small_scenario()
        built, calls = [], []
        real_make, real_evolve = experiment.make_gaussian, experiment.evolve

        def make(grid, spec):
            built.append(spec)
            return real_make(grid, spec)

        def evolve(psi, *args, **kwargs):
            result = real_evolve(psi, *args, **kwargs)
            calls.append((psi, result.psi))
            return result

        monkeypatch.setattr(experiment, "make_gaussian", make)
        monkeypatch.setattr(experiment, "evolve", evolve)
        monkeypatch.setattr(propagator, "evolve", evolve)
        rows = sweep(SweepConfig(base, parameter, values))
        assert all(row.valid for row in rows)
        assert built == [base.spec_a()]
        # one chain of calls: packet A from its launch to the last row's measurement
        assert calls[0][0].t == 0.0
        assert all(psi is out for (psi, _), (_, out) in zip(calls[1:], calls))
        chunk_t = base.dt * base.check_every
        assert len(calls) == round(max(row.t_meas for row in rows) / chunk_t)

    def test_holds_one_pair_at_a_time(self):
        # each pair is measured and dropped before A flies on, so six
        # values peak within two packets of one value
        base = small_scenario()

        def peak(values):
            tracemalloc.start()
            try:
                sweep(SweepConfig(base, "separation_d", values))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((5.0,))  # warm caches before measuring
        one = peak((5.0,))
        six = peak((0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
        assert six - one <= 2 * base.grid_points * 16

    def test_invalid_sweep_rejected_before_running(self):
        config = SweepConfig(small_scenario(), "height", (1.0,))
        with pytest.raises(ConfigurationError):
            sweep(config)


class TestOutOfBandOffsets:
    """An offset at which composing B from A drops more than COMPOSE_LOSS_MAX of B is refused."""

    @pytest.mark.parametrize("dk", [1.55, -1.55, 1.9, -1.9, 2.0, -2.0, -40.0])
    def test_refused_before_any_step(self, monkeypatch, dk):
        def no_flight(*_, **__):
            raise AssertionError("evolved an out-of-band scenario")

        monkeypatch.setattr(experiment, "evolve", no_flight)
        monkeypatch.setattr(propagator, "evolve", no_flight)
        with pytest.raises(ConfigurationError,
                           match=f"wavenumber offset {dk} out of band.* over the limit 3e-11"):
            run_scenario(small_scenario(wavenumber_offset=dk))

    def test_a_sweep_refused_at_every_value_starts_no_flight(self, monkeypatch):
        def no_flight(*_, **__):
            raise AssertionError("flew packet A with no config left to measure")

        monkeypatch.setattr(propagator, "_flies_free", no_flight)
        monkeypatch.setattr(propagator, "evolve", no_flight)
        rows = sweep(SweepConfig(small_scenario(), "wavenumber_dk", (2.0, -40.0)))
        for row in rows:
            assert row.error.startswith(f"ConfigurationError: wavenumber offset {row.param} ")
            assert not row.valid

    def test_a_refused_sweep_value_is_its_row_error(self):
        base = small_scenario()
        rows = sweep(SweepConfig(base, "wavenumber_dk", (2.0, 0.0, -40.0)))
        for row in rows[0], rows[2]:
            assert row.error.startswith(f"ConfigurationError: wavenumber offset {row.param} ")
            assert not row.valid and math.isnan(row.a)
        (alone,) = sweep(SweepConfig(base, "wavenumber_dk", (0.0,)))
        assert rows[1].valid and rows[1].to_csv_line() == alone.to_csv_line()
        assert json.dumps(rows[1].to_dict(), sort_keys=True) == json.dumps(alone.to_dict(),
                                                                           sort_keys=True)


def direct_reference(config: ScenarioConfig, t_meas: float):
    """Packets A and B each evolved by plain `evolve` calls, in `check_every`
    chunks, to `t_meas` and on to each stability time; the stats and the
    packets at `t_meas`, and the stability a values."""
    grid, barrier = config.grid(), config.barrier()
    packets = [make_gaussian(grid, config.spec_a()), make_gaussian(grid, config.spec_b())]

    def advance(packets, steps):
        while steps > 0:
            params = PropagationParams(dt=config.dt, steps=min(steps, config.check_every))
            packets = [evolve(psi, barrier, params).psi for psi in packets]
            steps -= params.steps
        return packets

    def measured(packets):
        return joint_probabilities(make_pair(*packets, config.sign), config.barrier_center)

    steps = round(t_meas / config.dt)
    at_t_meas = packets = advance(packets, steps)
    stats, stability, done = measured(packets), [], 0
    for fraction in config.stability_fractions:
        extra = int(round(fraction * steps))
        packets = advance(packets, extra - done)
        done = extra
        stability.append(measured(packets).a)
    return stats, at_t_meas, stability


class TestDirectReference:
    """Rows, with packet B composed from packet A, against B evolved for real."""

    @staticmethod
    def check(config, row, pair=None, tol=1e-10):
        assert row.valid and row.error is None
        stats, packets, stability = direct_reference(config, row.t_meas)
        if pair is not None:
            # amplitudes too, launch phase included; they may differ where
            # the gate lets amplitude stay, on the barrier
            for psi, reference in zip((pair.psi_a, pair.psi_b), packets):
                assert abs(psi.values - reference.values).max() <= config.barrier_amplitude_max
        for name in ("a", "p11", "p20", "p02", "t_b"):
            assert getattr(row, name) == pytest.approx(getattr(stats, name), abs=tol), name
        assert row.s_abs == pytest.approx(abs(stats.s), abs=tol)
        assert row.stability_a == pytest.approx(tuple(stability), abs=tol)

    @pytest.mark.parametrize("base, parameter, values", [
        (small_scenario(), "separation_d", (0.0, 1.37, 3.0)),
        # B composed from A at a wavenumber offset, here and at a stability time
        (small_scenario(separation=2.0, stability_fractions=(0.1,)), "wavenumber_dk", (-0.3, 0.5)),
        *[(small_scenario(separation=d, sign=sign, stability_fractions=(0.1,)), "wavenumber_dk",
           (dk,))
          for d, dk in ((0.0, 0.75), (2.0, -0.75), (3.0, -1.0)) for sign in (BOSON, FERMION)],
        # at the band's edge on this box: the cut drops 2.4e-11 and 2.5e-11 of B
        *[(small_scenario(separation=1.0, sign=sign, stability_fractions=(0.1,)), "wavenumber_dk",
           (1.5, -1.5)) for sign in (BOSON, FERMION)],
    ])
    def test_sweep_rows(self, base, parameter, values):
        rows = sweep(SweepConfig(base, parameter, values))
        for value, row in zip(values, rows):
            self.check(apply_sweep_parameter(base, parameter, value), row)

    @pytest.mark.parametrize("separation", [1.5, 2.718])
    def test_fermion_rows_with_stability_times(self, separation):
        config = small_scenario(sign=FERMION, separation=separation,
                                stability_fractions=(0.1, 0.2))
        self.check(config, *run_resolved(config, param_value=separation))

    def test_b_is_composed_only_from_an_a_drained_from_the_barrier(self):
        # a width-1.0 barrier holds a slowly draining resonance: at the
        # relaxed gate 1e-3 A still has amplitude on it, which the
        # composition would carry as if it flew free (a off by 1.2e-6 here)
        config = small_scenario(barrier_width=1.0, barrier_height=28.67, sign=FERMION,
                                separation=0.5, barrier_amplitude_max=1e-3, max_steps=16_000)
        self.check(config, run_resolved(config, param_value=0.5)[0], tol=1e-8)

    def test_pair_run_scenario(self):
        # the benchmark's seed-0 pair_run: the quick_run box, fermions at d = 1.5
        config = replace(small_scenario(), grid_points=4096, packet_center=-20.0,
                         separation=1.5, sign=FERMION, max_steps=60_000,
                         stability_fractions=(0.1, 0.2))
        self.check(config, *run_resolved(config, param_value=1.5))


class TestCountingComparison:
    @staticmethod
    def measured_row(p20, p02, p11):
        return ResultRow(
            param=0.0, p20=p20, p02=p02, p11=p11, a=0.5 * (p20 + p02), valid=True
        )

    def test_distinguishable_point_lands_on_mb(self):
        report = compare_with_counting(self.measured_row(0.25, 0.25, 0.5))
        assert isinstance(report, CountingReport)
        assert report.nearest == "MB"
        assert report.label == "MB"
        assert report.distances["MB"] == pytest.approx(0.0, abs=1e-12)
        assert report.distances["BE"] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert report.distances["FD"] == pytest.approx(0.5, abs=1e-12)

    def test_references_are_the_exact_counting_points(self):
        report = compare_with_counting(self.measured_row(0.3, 0.3, 0.4))
        assert report.references["MB"] == (0.25, 0.25, 0.5)
        assert report.references["BE"] == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert report.references["FD"] == (0.0, 0.0, 1.0)

    def test_uniform_point_lands_on_be(self):
        third = 1.0 / 3.0
        report = compare_with_counting(self.measured_row(third, third, third))
        assert report.nearest == "BE"
        assert "nearest reference: BE" in report.lines()[-1]

    def test_errored_row_is_rejected(self):
        with pytest.raises(ValueError):
            compare_with_counting(ResultRow(param=0.0, error="boom"))
        with pytest.raises(ValueError):
            compare_with_counting(ResultRow(param=0.0))


class TestSummaryJson:
    def test_summary_structure_and_round_trip(self):
        config = small_scenario()
        row = ResultRow(param=3.0, valid=False, error="skipped")
        summary = summary_dict("run", config, [row])
        assert summary["toolkit_version"] == pairstats.__version__
        assert summary["kind"] == "run"
        assert config_from_dict(summary["config"]) == config
        buf = io.StringIO()
        write_summary_json(summary, buf)
        text = buf.getvalue()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["rows"][0]["param"] == 3.0
        assert parsed["rows"][0]["error"] == "skipped"

    def test_sweep_and_calibration_blocks(self):
        config = small_scenario()
        summary = summary_dict(
            "sweep", config, [], sweep_info={"parameter": "separation_d", "values": [1.0]}
        )
        assert summary["sweep"]["parameter"] == "separation_d"
        assert "calibration" not in summary
