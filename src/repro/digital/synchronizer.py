"""Synchronizers: bringing asynchronous sensor outputs into a clock domain.

The synchronous controller cannot look at a comparator output directly —
it would violate the flop's setup window and go metastable.  The standard
remedy (Kinniment [15] in the paper) is the 2-flop synchronizer, which
costs up to 2 clock periods of input latency and still has a small failure
probability per crossing.  This latency is the synchronous design's
fundamental handicap that Table I quantifies.

:class:`SynchronizerBank` is the one implementation: every 2-flop
synchronizer sharing a clock is a channel of one bank, clocked by a
single rising-edge listener.  :class:`TwoFlopSynchronizer` is a
one-channel view of a bank.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..sim.core import Simulator
from ..sim.signal import RISE, Signal
from ..sim.units import NS
from .gates import DEFAULT_GATE_DELAY


class SynchronizerBank:
    """A set of 2-flop synchronizers sharing one clock — the shaded
    components at the input of the synchronous controller in Fig. 5a.

    Each channel behaves exactly like two chained :class:`~repro.digital.
    latches.DFlipFlop` s: the first flop (``t_setup``/``tau`` as in
    ``DFlipFlop``'s defaults) may capture a random value on an input
    change inside its setup window and resolve late; the second flop
    (no setup window) re-times the first flop's output, so the channel
    output is clean.  Only the output flops are :class:`Signal` s; the
    first-flop values and last input-change times are plain lists.

    On each rising clock edge the bank walks its channels in the order
    they were added, doing each first flop's setup check and RNG draws
    (``random`` then ``expovariate``) exactly as ``DFlipFlop`` does.  The
    captured values then land in **one** settle event ``t_clk_q`` after
    the edge, applied channel by channel (first flop, then output flop).
    A flop pipeline scheduled these 2-per-channel settles back to back
    inside one clock listener, so they held contiguous sequence numbers
    at one instant; the merged event keeps every same-instant ordering.
    A metastable first-flop capture resolves late, in its own event.

    ``inputs`` (optional) adds one channel per signal, named
    ``f"{name}.{signal.name}"`` and keyed by the signal's name in
    :attr:`synchronizers`; :meth:`add` adds a channel under any name.
    """

    #: flop timing: ``DFlipFlop``'s defaults (the output flop has no
    #: setup window, so it never goes metastable)
    t_clk_q = DEFAULT_GATE_DELAY
    t_setup = 0.05 * NS
    tau = 0.02 * NS

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 inputs: Iterable[Signal] = (), trace: bool = True):
        self.sim = sim
        self.name = name
        self.trace = trace
        self._inputs: List[Signal] = []
        #: channel output (second-flop Q) signals, in channel order
        self.outputs: List[Signal] = []
        self._q1: List[bool] = []
        self._last_change: List[float] = []
        self._metastable: List[int] = []
        #: settle events (merged, or a late first-flop resolution)
        #: scheduled but not yet applied
        self._inflight = 0
        self.synchronizers: Dict[str, TwoFlopSynchronizer] = {}
        clk.subscribe(self._on_clk, RISE)
        for sig in inputs:
            self.synchronizers[sig.name] = self.add(f"{name}.{sig.name}", sig)

    # ------------------------------------------------------------------
    def add(self, name: str, data: Signal,
            init: bool = False) -> "TwoFlopSynchronizer":
        """Add a channel synchronizing ``data``; its output is named
        ``f"{name}.ff2"``.  Returns the channel's view."""
        return TwoFlopSynchronizer._view(self, self._channel(name, data, init))

    def _channel(self, name: str, data: Signal, init: bool) -> int:
        index = len(self._inputs)
        self._inputs.append(data)
        self.outputs.append(Signal(self.sim, f"{name}.ff2", init=init,
                                   trace=self.trace))
        self._q1.append(bool(init))
        self._last_change.append(-1.0)
        self._metastable.append(0)
        last = self._last_change
        sim = self.sim

        def on_input(_sig: Signal, _value: bool) -> None:
            last[index] = sim.now
        data.subscribe(on_input)
        return index

    def output(self, input_name: str) -> Signal:
        return self.synchronizers[input_name].output

    def total_metastable_events(self) -> int:
        """First-flop setup violations observed, over every channel."""
        return sum(self._metastable)

    @property
    def settled(self) -> bool:
        """True when clocking the bank is provably a no-op: no captured
        sample is still propagating, and every channel's pipeline equals
        its (stable) input.  Clock gating only suspends the clock when
        the bank reports settled."""
        if self._inflight:
            return False
        q1 = self._q1
        for i, data in enumerate(self._inputs):
            v = data._value
            if q1[i] != v or self.outputs[i]._value != v:
                return False
        return True

    # ------------------------------------------------------------------
    def _on_clk(self, _sig: Signal, _value: bool) -> None:
        n = len(self._inputs)
        if not n:
            return
        sim = self.sim
        now = sim.now
        t_setup, tau, t_clk_q = self.t_setup, self.tau, self.t_clk_q
        last = self._last_change
        inputs = self._inputs
        # second flops sample the first flops' current outputs
        cap2 = list(self._q1)
        cap1: List[Optional[bool]] = [None] * n
        settle_at = now + t_clk_q
        for i in range(n):
            t_last = last[i]
            if t_last >= 0 and now - t_last < t_setup:
                self._metastable[i] += 1
                rng = sim.rng
                captured = rng.random() < 0.5
                resolution = rng.expovariate(1.0 / tau) if tau > 0 else 0.0
                delay = t_clk_q + resolution
                if now + delay == settle_at:
                    # a resolution too short to move the settle instant:
                    # its own event would have fired at this channel's
                    # place among the merged settles
                    cap1[i] = captured
                else:
                    self._inflight += 1
                    sim.schedule(delay,
                                 lambda i=i, v=captured: self._resolve(i, v))
            else:
                cap1[i] = inputs[i]._value
        self._inflight += 1
        sim.schedule(t_clk_q, lambda: self._settle(cap1, cap2))

    def _settle(self, cap1: List[Optional[bool]], cap2: List[bool]) -> None:
        self._inflight -= 1
        q1, outputs = self._q1, self.outputs
        for i in range(len(cap2)):
            v = cap1[i]
            if v is not None:
                q1[i] = v
            v = cap2[i]
            out = outputs[i]
            if v != out._value:
                out._apply(v)

    def _resolve(self, index: int, value: bool) -> None:
        self._inflight -= 1
        self._q1[index] = value


class TwoFlopSynchronizer:
    """Classic 2-flop brute-force synchronizer: one channel of a
    :class:`SynchronizerBank`.

    The first flop may capture a metastable/random value on a close input
    transition; the second flop re-times it, making the output clean with
    high probability.  Failure statistics are exposed via
    ``metastable_events`` (first-flop setup violations).  Constructed
    directly, it owns a one-channel bank.
    """

    def __init__(self, sim: Simulator, name: str, data: Signal, clk: Signal,
                 init: bool = False, trace: bool = True):
        self.bank = SynchronizerBank(sim, name, clk, trace=trace)
        self.index = self.bank._channel(name, data, init)

    @classmethod
    def _view(cls, bank: SynchronizerBank, index: int) -> "TwoFlopSynchronizer":
        view = cls.__new__(cls)
        view.bank, view.index = bank, index
        return view

    @property
    def output(self) -> Signal:
        return self.bank.outputs[self.index]

    @property
    def metastable_events(self) -> int:
        return self.bank._metastable[self.index]
