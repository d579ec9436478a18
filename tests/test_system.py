"""Integration tests for the assembled BuckSystem (closed loop)."""

import pytest

from repro import BuckSystem, RunResult, SystemConfig
from repro.analog import LoadProfile, ShortCircuitError, make_coil
from repro.sim import NS, UH, US


def _cfg(**kw):
    defaults = dict(controller="async", sim_time=5 * US, trace=False,
                    load=LoadProfile.constant(6.0), seed=1)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestConfigValidation:
    def test_bad_controller(self):
        with pytest.raises(ValueError):
            SystemConfig(controller="quantum")

    def test_bad_phase_count(self):
        with pytest.raises(ValueError):
            SystemConfig(n_phases=0)


class TestClosedLoopRegulation:
    @pytest.mark.parametrize("controller", ["async", "sync"])
    def test_regulates_near_reference(self, controller):
        system = BuckSystem(_cfg(controller=controller))
        result = system.measure()
        refs = system.sensors.refs
        assert abs(result.v_final - refs.v_ref) < 0.4

    @pytest.mark.parametrize("controller", ["async", "sync"])
    def test_no_short_circuit_ever(self, controller):
        """The cardinal safety property: the power-stage model raises if a
        controller ever overlaps PMOS and NMOS conduction."""
        system = BuckSystem(_cfg(controller=controller, sim_time=8 * US))
        system.measure()  # would raise ShortCircuitError on violation

    def test_peak_current_bounded(self):
        result = BuckSystem(_cfg()).measure()
        assert 0.1 < result.peak_coil_current < 1.0

    def test_all_phases_participate(self):
        result = BuckSystem(_cfg(sim_time=8 * US)).measure()
        assert all(c > 0 for c in result.cycles)

    def test_load_step_recovery(self):
        load = LoadProfile([(0.0, 6.0), (2 * US, 2.5), (3.5 * US, 6.0)])
        system = BuckSystem(_cfg(load=load, sim_time=6 * US))
        result = system.measure()
        assert abs(result.v_final - 3.3) < 0.4

    def test_deterministic_given_seed(self):
        r1 = BuckSystem(_cfg(seed=7)).measure()
        r2 = BuckSystem(_cfg(seed=7)).measure()
        assert r1.v_final == r2.v_final
        assert r1.peak_coil_current == r2.peak_coil_current
        assert r1.cycles == r2.cycles

    def test_sync_slower_clock_higher_peak(self):
        """The headline Fig. 7 ordering at a fast-slew coil."""
        peaks = {}
        for freq in (100e6, 1000e6):
            cfg = _cfg(controller="sync", fsm_frequency=freq,
                       coil=make_coil(1 * UH), sim_time=8 * US)
            peaks[freq] = BuckSystem(cfg).measure().peak_coil_current
        assert peaks[100e6] > peaks[1000e6]

    def test_async_peak_not_worse_than_sync333(self):
        cfg_a = _cfg(controller="async", coil=make_coil(1 * UH),
                     sim_time=8 * US)
        cfg_s = _cfg(controller="sync", fsm_frequency=333e6,
                     coil=make_coil(1 * UH), sim_time=8 * US)
        assert (BuckSystem(cfg_a).measure().peak_coil_current
                <= BuckSystem(cfg_s).measure().peak_coil_current)


class TestMeasurementPlumbing:
    def test_run_result_fields(self):
        result = BuckSystem(_cfg()).measure()
        assert isinstance(result, RunResult)
        assert result.controller == "async"
        assert result.coil_loss_w > 0
        assert 0 < result.efficiency <= 1.2
        assert result.ripple > 0

    def test_waveform_accessors_traced(self):
        system = BuckSystem(_cfg(trace=True, sim_time=3 * US))
        system.measure()
        assert len(system.probes()) == 1 + system.config.n_phases
        assert len(system.waveform_signals()) > 10
        assert len(system.solver.v_probe.times) > 1000

    def test_peak_includes_startup_transient(self):
        """Settle-window statistics must not hide the startup peak."""
        system = BuckSystem(_cfg(trace=True, coil=make_coil(1 * UH)))
        result = system.measure(settle=2 * US)
        # global max over the full trace equals the reported peak
        full_peak = max(max(abs(v) for v in p.values)
                        for p in system.solver.i_probes)
        assert result.peak_coil_current == pytest.approx(full_peak, rel=1e-9)

    def test_sensor_noise_run_stays_safe(self):
        """Comparator chatter must not break either controller (the A2A /
        synchronizer layers are exactly for this)."""
        for controller in ("async", "sync"):
            cfg = _cfg(controller=controller, sensor_noise=0.004,
                       sim_time=4 * US, seed=3)
            result = BuckSystem(cfg).measure()  # no ShortCircuitError
            assert abs(result.v_final - 3.3) < 0.6
