"""Latency models for the simulated network.

A latency model maps a ``(src, dst)`` pair to a delay sample.  Models are
deliberately small compositions over :mod:`repro.sim.distributions`; the two
non-trivial ones are :class:`SkewedLatency` (a subset of slow links, used to
manufacture the straggler subtransactions that exercise the 3V dual-write
path) and :class:`PartitionedLatency` (temporarily very slow links, used in
fault-injection tests to show advancement still terminates).
"""

from __future__ import annotations

import functools
import typing

from repro.errors import SimulationError
from repro.sim.distributions import Constant, Distribution, RngRegistry, Uniform

#: A bound per-copy draw: ``(src, dst) -> delay``.
Sampler = typing.Callable[[str, str], float]


class LatencyModel:
    """Base class: sample a one-way delay for a message on ``src -> dst``."""

    def delay(self, src: str, dst: str, rngs: RngRegistry) -> float:
        raise NotImplementedError  # pragma: no cover

    def bind_clock(self, now: typing.Callable[[], float]) -> None:
        """Attach the owning simulator's clock.

        :class:`~repro.net.network.Network` calls this on construction, so
        time-dependent models (:class:`PartitionedLatency`) see simulation
        time without callers threading a closure through.  Stateless models
        ignore it.
        """

    def sampler(self, rngs: RngRegistry) -> Sampler:
        """This model's draw with ``rngs`` bound: ``(src, dst) -> delay``.

        The network binds it once, at wiring time, and calls it for every
        physical copy.  The generic binding is :meth:`delay` itself;
        models with a cheaper closed form override it.
        """
        return functools.partial(self.delay, rngs=rngs)


class UniformLatency(LatencyModel):
    """Every link draws from the same distribution.

    A distribution with variance produces message *reordering* on a link,
    which is exactly the asynchrony the 3V protocol must tolerate.
    """

    def __init__(self, distribution: Distribution):
        self.distribution = distribution

    def delay(self, src: str, dst: str, rngs: RngRegistry) -> float:
        return rngs.sample("net.latency", self.distribution)

    def sampler(self, rngs: RngRegistry) -> Sampler:
        """One frame per draw for a :class:`Uniform` or :class:`Constant`
        distribution, bit-identical to :meth:`delay`:
        ``low + (high - low) * random()`` is what ``random.uniform``
        computes.  Any other distribution takes the generic binding."""
        distribution = self.distribution
        # Made even where nothing draws from it, as :meth:`delay` does.
        stream = rngs.stream("net.latency")
        if type(distribution) is Uniform:
            low = distribution.low
            width = distribution.high - low
            random = stream.random
            return lambda src, dst: low + width * random()
        if type(distribution) is Constant:
            value = distribution.value
            return lambda src, dst: value
        return super().sampler(rngs)

    def __repr__(self) -> str:
        return f"UniformLatency({self.distribution!r})"


class LocalRemoteLatency(LatencyModel):
    """Fast self-loop, slower remote links (LAN/WAN split)."""

    def __init__(self, local: Distribution, remote: Distribution):
        self.local = local
        self.remote = remote

    def delay(self, src: str, dst: str, rngs: RngRegistry) -> float:
        distribution = self.local if src == dst else self.remote
        return rngs.sample("net.latency", distribution)


class SkewedLatency(LatencyModel):
    """A designated set of slow links; every other link is fast.

    Args:
        fast: Distribution for ordinary links.
        slow: Distribution for the slow links.
        slow_links: Set of ``(src, dst)`` pairs that are slow.
    """

    def __init__(
        self,
        fast: Distribution,
        slow: Distribution,
        slow_links: typing.Iterable[typing.Tuple[str, str]],
    ):
        self.fast = fast
        self.slow = slow
        self.slow_links = frozenset(slow_links)

    def delay(self, src: str, dst: str, rngs: RngRegistry) -> float:
        distribution = self.slow if (src, dst) in self.slow_links else self.fast
        return rngs.sample("net.latency", distribution)


class PartitionedLatency(LatencyModel):
    """Wraps a base model; designated links stall during a time window.

    Messages sent on a stalled link are held until the window closes (plus
    the base delay).  Used to show that version advancement is delayed but
    user transactions are not (fault-injection tests).

    The model needs the simulation clock to know whether a send falls in
    the stall window; the owning ``Network`` provides it via
    :meth:`bind_clock` at construction, so callers no longer pass one.
    """

    def __init__(
        self,
        base: LatencyModel,
        stalled_links: typing.Iterable[typing.Tuple[str, str]],
        start: float,
        end: float,
    ):
        if end < start:
            raise SimulationError(f"partition window reversed: [{start}, {end}]")
        self.base = base
        self.stalled_links = frozenset(stalled_links)
        self.start = start
        self.end = end
        self._now: typing.Optional[typing.Callable[[], float]] = None

    def bind_clock(self, now: typing.Callable[[], float]) -> None:
        self._now = now
        self.base.bind_clock(now)

    def delay(self, src: str, dst: str, rngs: RngRegistry) -> float:
        base_delay = self.base.delay(src, dst, rngs)
        if self._now is None:
            raise SimulationError(
                "PartitionedLatency has no clock; attach the model to a "
                "Network/System first (bind_clock happens on construction)"
            )
        now = self._now()
        if (src, dst) in self.stalled_links and self.start <= now < self.end:
            return (self.end - now) + base_delay
        return base_delay


class LinkLatency(LatencyModel):
    """Explicit per-directed-link latencies with a default for the rest.

    Used to script exact event orderings — e.g. the paper's Table 1, where
    subtransaction ``jp`` must overtake the start-advancement notice on the
    way to node ``p``.
    """

    def __init__(
        self,
        links: typing.Mapping[typing.Tuple[str, str], Distribution],
        default: typing.Optional[Distribution] = None,
    ):
        self.links = dict(links)
        self.default = default if default is not None else Constant(1.0)

    def delay(self, src: str, dst: str, rngs: RngRegistry) -> float:
        distribution = self.links.get((src, dst), self.default)
        return rngs.sample("net.latency", distribution)


def constant_latency(value: float) -> UniformLatency:
    """Convenience: a deterministic network with the same delay everywhere."""
    return UniformLatency(Constant(value))
