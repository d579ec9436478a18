"""SynchronizerBank equivalence with a flop-by-flop 2-flop pipeline.

The bank clocks every channel from one listener and lands each edge's
captures in one merged settle event.  The reference below is the
pipeline it replaces — two :class:`DFlipFlop` s per input, the second
re-timing the first — built here so the comparison does not depend on
the code under test.  Both are driven by the same seeded input edges,
many of them inside the first flop's setup window, and must agree on
every output edge, every metastability count, the simulator RNG state,
and the gating predicate ``settled`` sampled on the opposite clock
phase (where the synchronous controller's FSM reads it).
"""

import random

import pytest

from repro.digital import (Clock, DFlipFlop, SynchronizerBank,
                           TwoFlopSynchronizer)
from repro.sim import NS, Signal, Simulator

N_INPUTS = 5
N_PERIODS = 400


class _FlopPipeline:
    """Reference: one pair of chained DFlipFlops per input."""

    def __init__(self, sim, clk, inputs):
        self.inputs = inputs
        self.ff1, self.ff2 = [], []
        for sig in inputs:
            ff1 = DFlipFlop(sim, f"sync_{sig.name}.ff1", sig, clk, trace=False)
            ff2 = DFlipFlop(sim, f"sync_{sig.name}.ff2", ff1.q, clk,
                            t_setup=0.0, tau=0.0)
            self.ff1.append(ff1)
            self.ff2.append(ff2)
        self.outputs = [ff2.q for ff2 in self.ff2]

    @property
    def settled(self):
        return all(f1.inflight == 0 and f2.inflight == 0
                   and f1.q.value == f2.q.value == sig.value
                   for f1, f2, sig in zip(self.ff1, self.ff2, self.inputs))

    def metastable(self):
        return [f1.metastable_events for f1 in self.ff1]


class _Bank:
    def __init__(self, sim, clk, inputs):
        self.bank = SynchronizerBank(sim, "sync", clk)
        self.views = [self.bank.add(f"sync_{sig.name}", sig) for sig in inputs]
        self.outputs = [v.output for v in self.views]

    @property
    def settled(self):
        return self.bank.settled

    def metastable(self):
        return [v.metastable_events for v in self.views]


def _edge_plan(seed, period):
    """Seeded input edges: (time, input index, value).  A third of them
    land inside the setup window just before a sync-clock edge."""
    rng = random.Random(seed)
    plan = []
    values = [False] * N_INPUTS
    t_end = N_PERIODS * period
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / (0.7 * period))
        if t >= t_end:
            break
        when = t
        if rng.random() < 1 / 3:
            # sync edges sit at period/2 + k*period; hit the 0.05 ns window
            k = int((t - period / 2) // period) + 1
            when = period / 2 + k * period - rng.uniform(0.0, 0.05) * NS
        i = rng.randrange(N_INPUTS)
        values[i] = not values[i]
        plan.append((when, i, values[i]))
    return plan


def _drive(make, seed, period, plan):
    sim = Simulator(seed=seed)
    fsm_clk = Clock(sim, "fsm_clk", period)
    sync_clk = Clock(sim, "sync_clk", period, phase=period / 2)
    inputs = [Signal(sim, f"in{i}") for i in range(N_INPUTS)]
    dut = make(sim, sync_clk.signal, inputs)
    settled_log = []
    fsm_clk.signal.subscribe(lambda _s, _v: settled_log.append(dut.settled),
                             "rise")
    for when, i, value in plan:
        sim.schedule_at(when, lambda s=inputs[i], v=value: s._apply(v))
    sim.run_until(N_PERIODS * period + 3 * NS)
    return {
        "outputs": [list(out.history) for out in dut.outputs],
        "names": [out.name for out in dut.outputs],
        "metastable": dut.metastable(),
        "rng": sim.rng.getstate(),
        "settled": settled_log,
    }


@pytest.mark.parametrize("period", [1 * NS, 3 * NS])
@pytest.mark.parametrize("seed", [1, 2])
def test_bank_matches_flop_pipeline(period, seed):
    plan = _edge_plan(seed, period)
    ref = _drive(_FlopPipeline, seed, period, plan)
    got = _drive(_Bank, seed, period, plan)
    assert sum(ref["metastable"]) > 10, "plan must exercise setup hits"
    assert any(ref["settled"]) and not all(ref["settled"])
    assert got["names"] == ref["names"]
    assert got["metastable"] == ref["metastable"]
    assert got["outputs"] == ref["outputs"]
    assert got["settled"] == ref["settled"]
    assert got["rng"] == ref["rng"]


def test_bank_schedules_one_settle_per_edge():
    """The merged settle: one kernel event per clock edge for the whole
    bank, whatever its width (no setup hits here)."""
    sim = Simulator(seed=0)
    clk = Clock(sim, "clk", 10 * NS)
    inputs = [Signal(sim, f"in{i}") for i in range(8)]
    bank = SynchronizerBank(sim, "bank", clk.signal, inputs)
    sim.run_until(99 * NS)
    # 10 rises + 10 falls + 10 settles
    assert clk.edges_simulated == 20
    assert sim.events_delivered == 30
    assert bank.settled and bank.total_metastable_events() == 0


def test_standalone_synchronizer_is_a_one_channel_bank():
    sim = Simulator(seed=3)
    data = Signal(sim, "d")
    clk = Clock(sim, "clk", period=10 * NS)
    sync = TwoFlopSynchronizer(sim, "s", data, clk.signal)
    assert sync.output.name == "s.ff2"
    assert sync.bank.settled
    data.set(True, 12 * NS)
    sim.run(25 * NS)
    assert not sync.bank.settled     # first flop has it, output not yet
    sim.run(10 * NS)
    assert sync.output.value and sync.bank.settled
