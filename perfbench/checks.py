"""Correctness checks run outside the timed window.

Backend comparisons use the promises of the cross-backend differential
harness (``tests/scenarios/test_differential.py``): voltages and peak
current within ``ABS_TOL``, loss and efficiency within ``REL_TOL``,
controller statistics exactly.  Kernel counters (events delivered,
solver ticks, clock edges simulated or skipped) are reported by the
traced run, never compared: a kernel change may legitimately move them
on one backend.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

#: the differential harness's cross-backend tolerances
ABS_TOL = 1e-9
REL_TOL = 1e-9

ABS_FIELDS = ("v_final", "peak_coil_current", "ripple")
REL_FIELDS = ("coil_loss_w", "efficiency")
EXACT_FIELDS = ("controller", "cycles", "ov_events", "metastable_events")


class Mismatch(Exception):
    """A result differs from its reference; names the lane and field."""

    def __init__(self, lane: str, field: str, expected: Any, got: Any):
        super().__init__(f"lane {lane}: field {field}: expected "
                         f"{expected!r}, got {got!r}")
        self.lane = lane
        self.field = field


def check_backends(lane: str, reference, result) -> None:
    """Raise :class:`Mismatch` unless two backends' RunResults agree."""
    for name in ABS_FIELDS + REL_FIELDS + EXACT_FIELDS:
        want, got = getattr(reference, name), getattr(result, name)
        if name in ABS_FIELDS:
            ok = abs(got - want) <= ABS_TOL
        elif name in REL_FIELDS:
            ok = abs(got - want) <= max(REL_TOL * abs(want), 1e-12)
        else:
            ok = list(got) == list(want) if name == "cycles" else got == want
        if not ok:
            raise Mismatch(lane, name, want, got)


def check_identical(lane: str, reference: Mapping[str, Any],
                    result: Mapping[str, Any]) -> None:
    """Raise :class:`Mismatch` unless two ``RunResult.to_dict()`` payloads
    are bit-identical, field by field."""
    for name in sorted(set(reference) | set(result)):
        want, got = reference.get(name), result.get(name)
        if want != got:
            raise Mismatch(lane, name, _short(want), _short(got))


def _short(value: Optional[Any]) -> Any:
    text = repr(value)
    return value if len(text) <= 80 else text[:77] + "..."
