"""Telemetry-driven replica and shard autoscaling.

The :class:`Autoscaler` is a deterministic control loop: each
:meth:`~Autoscaler.tick` reads the per-shard latency series the cluster
engine records (``shard_latency_ms{shard=N}``), computes each shard's
*windowed* mean — from the histogram's exact ``(count, total)`` deltas
since the previous tick, so a scaling action shows up in the signal
immediately instead of being averaged away by hours of history — and
walks an escalation ladder:

* hot shard (windowed mean above ``latency_high_ms`` for
  ``breach_rounds`` consecutive ticks): add a replica; at
  ``max_replicas``, split the shard.
* cold shard (below ``latency_low_ms`` just as persistently): drop a
  replica; at ``min_replicas`` with a small document count, merge it
  into its smallest surviving peer.

Flap resistance is structural, not tuned: the high/low thresholds form
a dead band, breaches must persist for ``breach_rounds`` ticks, at most
one action fires per tick, and every action starts a global
``cooldown_ticks`` quiet period. While a migration is in flight the
loop steps *it* instead of deciding anything new.

Everything is replayable — the loop consumes SimClock-timed telemetry
and holds no wall-clock or random state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.slo import NULL_SLO
from repro.telemetry import Telemetry

__all__ = ["AutoscalerPolicy", "AutoscaleDecision", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Thresholds and guard rails for the scaling loop."""

    latency_high_ms: float = 45.0   # windowed mean above -> hot
    latency_low_ms: float = 15.0    # windowed mean below -> cold
    breach_rounds: int = 3          # consecutive ticks before acting
    cooldown_ticks: int = 4         # quiet period after any action
    min_replicas: int = 1
    max_replicas: int = 3
    max_shards: int = 16
    split_min_docs: int = 64        # never split a shard smaller than this
    merge_max_docs: int = 32        # merge candidates must be this small
                                    # (0 disables merges entirely)

    def __post_init__(self) -> None:
        if self.latency_low_ms >= self.latency_high_ms:
            raise ValueError(
                "latency_low_ms must sit below latency_high_ms"
            )
        if self.breach_rounds <= 0 or self.cooldown_ticks < 0:
            raise ValueError("breach_rounds must be positive and "
                             "cooldown_ticks non-negative")
        if self.min_replicas <= 0 or self.max_replicas < self.min_replicas:
            raise ValueError("need 0 < min_replicas <= max_replicas")


@dataclass(frozen=True)
class AutoscaleDecision:
    """What one tick decided, and why."""

    tick: int
    action: str          # add_replica | remove_replica | split | merge
                         # | reshard_step | none
    shard_id: int | None = None
    target_id: int | None = None
    reason: str = ""

    @property
    def acted(self) -> bool:
        return self.action not in ("none", "reshard_step")


class Autoscaler:
    """Deterministic scaling loop over one cluster + lifecycle manager."""

    def __init__(self, engine, lifecycle,
                 telemetry: Telemetry | None = None,
                 policy: AutoscalerPolicy | None = None,
                 slo=NULL_SLO) -> None:
        self.engine = engine
        self.lifecycle = lifecycle
        self.telemetry = telemetry or Telemetry.disabled()
        self.policy = policy or AutoscalerPolicy()
        # Optional repro.slo engine: a firing burn-rate alert becomes an
        # additional scale-up pressure on the hottest shard.
        self.slo = slo
        self.tick_count = 0
        self.decisions: list[AutoscaleDecision] = []
        self._last_seen: dict[int, tuple] = {}   # shard -> (count, total)
        self._hot_rounds: dict[int, int] = {}
        self._cold_rounds: dict[int, int] = {}
        self._cooldown = 0

    # -- signal ---------------------------------------------------------------

    def windowed_means(self) -> dict:
        """Per-shard mean latency since the previous tick.

        Exact — derived from histogram ``(count, total)`` deltas, not
        the compacted sample set. Shards with no traffic this window
        map to ``None``.
        """
        means: dict[int, float | None] = {}
        for shard_id in self.engine.router.snapshot().shard_ids:
            histogram = self.telemetry.metrics.histogram(
                "shard_latency_ms", shard=str(shard_id))
            count, total = histogram.count, float(histogram.total)
            last_count, last_total = self._last_seen.get(
                shard_id, (0, 0.0))
            window = count - last_count
            means[shard_id] = ((total - last_total) / window
                               if window > 0 else None)
            self._last_seen[shard_id] = (count, total)
        return means

    # -- control loop ---------------------------------------------------------

    def tick(self) -> AutoscaleDecision:
        """Read the window, update breach streaks, maybe act once."""
        self.tick_count += 1
        means = self.windowed_means()
        self._update_streaks(means)
        self._note_slo_burn(means)
        if self.lifecycle.active:
            state = self.lifecycle.step()
            decision = AutoscaleDecision(
                tick=self.tick_count, action="reshard_step",
                reason=f"migration in {state}")
        elif self._cooldown > 0:
            self._cooldown -= 1
            decision = AutoscaleDecision(
                tick=self.tick_count, action="none",
                reason=f"cooldown ({self._cooldown} ticks left)")
        else:
            decision = (self._scale_up(means)
                        or self._scale_down(means)
                        or AutoscaleDecision(tick=self.tick_count,
                                             action="none",
                                             reason="within band"))
        if decision.acted:
            self._cooldown = self.policy.cooldown_ticks
            self._hot_rounds.pop(decision.shard_id, None)
            self._cold_rounds.pop(decision.shard_id, None)
            self.telemetry.metrics.counter(
                "controlplane_autoscale_decisions_total",
                action=decision.action).inc()
            self.telemetry.events.emit(
                "autoscale.decision", tick=decision.tick,
                action=decision.action, shard=decision.shard_id,
                target=decision.target_id, reason=decision.reason,
            )
        self.decisions.append(decision)
        return decision

    # -- internals ------------------------------------------------------------

    def _update_streaks(self, means: dict) -> None:
        policy = self.policy
        for shard_id, mean in means.items():
            if mean is None:             # idle window: hold streaks
                continue
            if mean > policy.latency_high_ms:
                self._hot_rounds[shard_id] = (
                    self._hot_rounds.get(shard_id, 0) + 1)
                self._cold_rounds.pop(shard_id, None)
            elif mean < policy.latency_low_ms:
                self._cold_rounds[shard_id] = (
                    self._cold_rounds.get(shard_id, 0) + 1)
                self._hot_rounds.pop(shard_id, None)
            else:                        # dead band
                self._hot_rounds.pop(shard_id, None)
                self._cold_rounds.pop(shard_id, None)
        # Streaks for shards that left the topology die with it.
        active = set(means)
        for streaks in (self._hot_rounds, self._cold_rounds):
            for shard_id in list(streaks):
                if shard_id not in active:
                    del streaks[shard_id]

    def _note_slo_burn(self, means: dict) -> None:
        """Fold SLO burn into the hot streaks.

        While any burn-rate alert is firing, error budget is draining
        faster than the objective allows — platform-wide evidence that
        the latency dead band is too forgiving for the current load.
        Credit one extra hot round to the hottest shard of the window
        (deterministic tie-break by shard id), so the escalation ladder
        engages sooner without bypassing the persistence bar entirely.
        """
        if not self.slo.burning():
            return
        candidates = [(mean, shard_id)
                      for shard_id, mean in means.items()
                      if mean is not None]
        if not candidates:
            return
        hottest = min(candidates,
                      key=lambda pair: (-pair[0], pair[1]))[1]
        self._hot_rounds[hottest] = self._hot_rounds.get(hottest, 0) + 1
        self._cold_rounds.pop(hottest, None)

    def _breached(self, streaks: dict, means: dict) -> list:
        """Shards past the persistence bar, worst offender first."""
        policy = self.policy
        ready = [shard_id for shard_id, rounds in streaks.items()
                 if rounds >= policy.breach_rounds]
        return sorted(
            ready,
            key=lambda sid: (-(means.get(sid) or 0.0), sid),
        )

    def _scale_up(self, means: dict) -> AutoscaleDecision | None:
        policy = self.policy
        for shard_id in self._breached(self._hot_rounds, means):
            group = self.engine.groups[shard_id]
            mean = means[shard_id]
            # An idle window's held streak, or nothing intact to scale.
            if mean is None or group.primary().crashed:
                continue
            if len(group.replicas) < policy.max_replicas:
                self.lifecycle.add_replica(shard_id)
                if mean > policy.latency_high_ms:
                    reason = (f"mean {mean:.1f}ms > "
                              f"{policy.latency_high_ms:.1f}ms")
                else:
                    # Streak earned (at least partly) by SLO burn
                    # credits rather than the latency threshold alone.
                    reason = (f"slo burn; hottest shard mean "
                              f"{mean:.1f}ms")
                return AutoscaleDecision(
                    tick=self.tick_count, action="add_replica",
                    shard_id=shard_id, reason=reason,
                )
            docs = self.engine.shard_doc_count(shard_id)
            if (docs >= policy.split_min_docs
                    and self.engine.num_shards < policy.max_shards):
                migration = self.lifecycle.begin_split(shard_id)
                return AutoscaleDecision(
                    tick=self.tick_count, action="split",
                    shard_id=shard_id, target_id=migration.target_id,
                    reason=f"mean {mean:.1f}ms at max_replicas; "
                           f"{docs} docs",
                )
        return None

    def _scale_down(self, means: dict) -> AutoscaleDecision | None:
        policy = self.policy
        # Coldest last in _breached's hot-first ordering; walk reversed
        # so the idlest shard sheds capacity first.
        for shard_id in reversed(self._breached(self._cold_rounds,
                                                means)):
            group = self.engine.groups[shard_id]
            mean = means[shard_id]
            if mean is None:      # streak held over an idle window
                continue
            if len(group.replicas) > policy.min_replicas:
                self.lifecycle.remove_replica(shard_id)
                return AutoscaleDecision(
                    tick=self.tick_count, action="remove_replica",
                    shard_id=shard_id,
                    reason=f"mean {mean:.1f}ms < "
                           f"{policy.latency_low_ms:.1f}ms",
                )
            docs = self.engine.shard_doc_count(shard_id)
            peers = [sid for sid in means if sid != shard_id]
            if (policy.merge_max_docs > 0
                    and docs <= policy.merge_max_docs and peers):
                target = min(
                    peers,
                    key=lambda sid: (self.engine.shard_doc_count(sid),
                                     sid),
                )
                self.lifecycle.begin_merge(shard_id, target)
                return AutoscaleDecision(
                    tick=self.tick_count, action="merge",
                    shard_id=shard_id, target_id=target,
                    reason=f"{docs} docs <= merge_max_docs "
                           f"{policy.merge_max_docs}",
                )
        return None
