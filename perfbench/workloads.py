"""Seeded inputs and the two in-process workloads.

Every lane parameter is drawn from ``random.Random`` seeded with a
string of the run seed, the stream and the job number, so one seed
always gives the same specs, and job ``k`` is the same whether a run
gets to job ``k + 1`` or not.  Loads are always drawn explicitly, as
in the paper's Fig. 7 sweeps.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List

from checks import check_backends
from common import Job
from repro import Session
from repro.analog.coil import library_values
from repro.experiments.fig7 import controller_axis
from repro.scenarios import ScenarioSpec

UH = 1e-6
#: the coil catalogue, in microhenry (Fig. 7's x axis)
COILS_UH = [round(v / UH, 3) for v in library_values()]
#: simulated time per lane: covers the start-up transient that sets
#: Fig. 7's peak currents
SIM_TIME = 2e-6
#: the lock-step batch: fig7a's fixed 1 ns grid, gating on
GRID_BASE: Dict[str, Any] = {"n_phases": 4, "sim_time": SIM_TIME,
                             "dt": 1e-9, "stepping": "fixed",
                             "gating": "auto"}
#: serve-mixed's cold lanes are short: a write is compute, npz store
#: and results over SSE, none of which dominates, and short writes keep
#: the share of reads that run beside one well below half
COLD_SIM_TIME = 0.5e-6
#: fig7a's (coil, load) points per controller in one grid sweep; also
#: the number of coil and load strata
GRID_POINTS = 4
#: solo-lanes' four lane kinds: async / sync 333 MHz x fixed / adaptive
SOLO_KINDS = [(ctrl, ov, stepping)
              for ctrl, ov in (("async", {"controller": "async"}),
                               ("sync333", {"controller": "sync",
                                            "fsm_frequency": 333e6}))
              for stepping in ("fixed", "adaptive")]


def _rng(*parts: Any) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _draw_point(rng: random.Random) -> Dict[str, Any]:
    return {"l_uh": rng.choice(COILS_UH),
            "r_load": round(rng.uniform(3.0, 15.0), 3)}


def _stratified_point(rng: random.Random, coil: int, load: int
                      ) -> Dict[str, Any]:
    """A coil from the ``coil``-th and a load from the ``load``-th of
    :data:`GRID_POINTS` equal parts of the catalogue and of 3-15 Ohm.
    A lane's cost depends mostly on its coil (small coils switch more),
    so drawing every part equally often keeps the work of a run about
    the same whatever the seed."""
    lo = coil * len(COILS_UH) // GRID_POINTS
    hi = (coil + 1) * len(COILS_UH) // GRID_POINTS
    width = 12.0 / GRID_POINTS
    return {"l_uh": rng.choice(COILS_UH[lo:hi]),
            "r_load": round(3.0 + width * (load + rng.random()), 3)}


def grid_specs(seed: int, k: int) -> List[ScenarioSpec]:
    """Sweep ``k``: fig7a's five controllers x ``GRID_POINTS`` seeded
    (coil, load) points — 20 lanes sharing one lock-step batch.  Point
    ``j`` draws its coil from the ``j``-th quarter of the catalogue and
    its load from a shuffled quarter of 3-15 Ohm, so every sweep spans
    the figure's axes and costs about the same."""
    rng = _rng("grid", seed, k)
    strata = list(range(GRID_POINTS))
    rng.shuffle(strata)
    points = []
    for j, s in enumerate(strata):
        point = _stratified_point(rng, j, s)
        points.append((point, rng.randrange(1 << 31)))
    return [ScenarioSpec(f"grid{k}-{label}-p{j}",
                         overrides={**GRID_BASE, **ov, **point},
                         seed=lane_seed)
            for label, ov in controller_axis()
            for j, (point, lane_seed) in enumerate(points)]


def solo_specs(seed: int, k: int) -> List[ScenarioSpec]:
    """Round ``k``: one seeded lane of each :data:`SOLO_KINDS` kind.
    Rounds come in blocks of :data:`GRID_POINTS`; within a block each
    kind draws its coil from every quarter of the catalogue once and
    its load from every quarter of 3-15 Ohm once, in a seeded order."""
    block, r = divmod(k, GRID_POINTS)
    plan = _rng("solo-plan", seed, block)
    rng = _rng("solo", seed, k)
    specs = []
    for ctrl, ov, stepping in SOLO_KINDS:
        coils, loads = list(range(GRID_POINTS)), list(range(GRID_POINTS))
        plan.shuffle(coils)
        plan.shuffle(loads)
        specs.append(ScenarioSpec(
            f"solo{k}-{ctrl}-{stepping}",
            overrides={**ov, "n_phases": 4, "sim_time": SIM_TIME,
                       "stepping": stepping,
                       **_stratified_point(rng, coils[r], loads[r])},
            seed=rng.randrange(1 << 31)))
    return specs


def cold_specs(seed: int, client: int, k: int) -> List[ScenarioSpec]:
    """serve-mixed's cold job ``k`` of ``client``: two fresh lanes of
    random controllers (fresh seeds, so never cached)."""
    rng = _rng("cold", seed, client, k)
    axis = controller_axis()
    specs = []
    for j in range(2):
        label, ov = rng.choice(axis)
        specs.append(ScenarioSpec(
            f"cold{client}.{k}-{label}-{j}",
            overrides={**GRID_BASE, **ov, **_draw_point(rng),
                       "sim_time": COLD_SIM_TIME},
            seed=rng.randrange(1 << 31)))
    return specs


# ---------------------------------------------------------------------------
# grid-sweep
# ---------------------------------------------------------------------------
class GridSweep:
    """One caller, repeated 20-lane fig7a-shaped vector sweeps."""

    name = "grid-sweep"
    #: rough seconds per sweep on a 2-core box (sizes the traced run)
    job_estimate_s = 1.6
    #: lanes re-run on the scalar backend by the correctness check
    checked_lanes = 4
    round_jobs = 1
    #: set-ups per run (``setup_s`` is their median)
    setup_runs = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.session = Session(backend="vector", cache="off")

    def warm_up(self) -> None:
        self.session.run(grid_specs(self.seed, 0)[0])

    def jobs(self) -> Iterator[Job]:
        for k in itertools.count():
            specs = grid_specs(self.seed, k)
            yield Job(f"sweep{k}", len(specs),
                      lambda s=specs: (s, [p.result for p in
                                           self.session.sweep(s)]),
                      kind="sweep")

    def check(self, outputs: List[tuple]) -> None:
        lanes = [(spec, result) for _, (specs, results) in outputs
                 for spec, result in zip(specs, results)]
        scalar = Session(backend="scalar", cache="off")
        rng = _rng("check", self.seed)
        for spec, result in rng.sample(lanes, min(self.checked_lanes,
                                                 len(lanes))):
            check_backends(spec.name, scalar.run(spec), result)


# ---------------------------------------------------------------------------
# solo-lanes
# ---------------------------------------------------------------------------
class SoloLanes:
    """One caller, single-lane ``Session.run`` calls; every lane runs
    once on the scalar and once on the vector backend.  Runs stop only
    between whole rounds, so the job mix is the same in every run."""

    name = "solo-lanes"
    job_estimate_s = 0.17
    backends = ("scalar", "vector")
    round_jobs = len(SOLO_KINDS) * len(backends)
    setup_runs = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.sessions = {b: Session(backend=b, cache="off")
                         for b in self.backends}

    def warm_up(self) -> None:
        spec = solo_specs(self.seed, 0)[0]
        for session in self.sessions.values():
            session.run(spec)

    def jobs(self) -> Iterator[Job]:
        for k in itertools.count():
            for j, spec in enumerate(solo_specs(self.seed, k)):
                for backend in self.backends:
                    run = self.sessions[backend].run
                    yield Job(f"{spec.name}/{backend}", 1,
                              lambda s=spec, r=run: (s, r(s)),
                              kind=backend,
                              stop_before=(j, backend) == (0, "scalar"))

    def check(self, outputs: List[tuple]) -> None:
        by_lane: Dict[str, Dict[str, Any]] = {}
        for job, (spec, result) in outputs:
            by_lane.setdefault(spec.name, {})[job.kind] = result
        for name, pair in by_lane.items():
            if len(pair) == 2:
                check_backends(name, pair["scalar"], pair["vector"])
