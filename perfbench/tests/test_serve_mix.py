"""serve-mixed's clients run independent closed loops in whole rounds
of one cold job and ``HOT_PER_COLD`` hot ones, the cold job at a
seeded place in each round."""

import re
import threading
import time

from serve_mixed import CLIENTS, HOT_PER_COLD, ServeMixed


class InstantClient:
    """Answers every sweep at once: hot lanes are hits, cold ones not."""

    def run_sweep(self, specs=None, trace=False):
        time.sleep(0.001)
        return [{"index": i, "cached": not trace and len(specs) > 2,
                 "result": {}} for i in range(len(specs))]


def _drive(tmp_path, seed=3, **kwargs):
    out = {}
    wl = ServeMixed(seed, run_dir=tmp_path)
    t = threading.Thread(target=lambda: out.update(
        ledger=wl.drive(InstantClient(), **kwargs)))
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "clients never stopped"
    return out["ledger"]


def _rounds(kinds):
    size = HOT_PER_COLD + 1
    return [kinds[i:i + size] for i in range(0, len(kinds), size)]


def test_count_runs_whole_rounds_with_one_cold_job_each(tmp_path):
    ledger = _drive(tmp_path, count=3 * (HOT_PER_COLD + 1) + 2)
    assert ledger.attempted == CLIENTS * 3 * (HOT_PER_COLD + 1)
    assert ledger.failed == 0
    for client in range(CLIENTS):
        kinds = [job.kind for job, _ in ledger.outputs
                 if re.match(rf"(hot|cold){client}\.", job.name)]
        assert all(r.count("cold") == 1 for r in _rounds(kinds))


def test_the_seed_fixes_the_mix(tmp_path):
    def names(seed):
        return sorted(job.name for job, _ in _drive(
            tmp_path, seed=seed, count=8 * (HOT_PER_COLD + 1)).outputs)

    assert names(3) == names(3)
    assert names(3) != names(4)


def test_deadline_stops_every_client_between_rounds(tmp_path):
    ledger = _drive(tmp_path, deadline=time.perf_counter() + 0.2)
    assert ledger.attempted % (HOT_PER_COLD + 1) == 0
    assert ledger.kinds.count("cold") * HOT_PER_COLD == \
        ledger.kinds.count("hot")
