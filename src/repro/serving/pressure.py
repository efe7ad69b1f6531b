"""Brownout serving: map queue pressure to a healthiest-K member roster.

Admission control (:mod:`repro.serving.scheduler`) trades *requests* for
latency; brownout trades *accuracy* for latency — and for an α-weighted
ensemble that trade is principled, not a hack.  Eq. 16 renormalises the
vote over whatever members are present, so serving K < T members is just
the degraded-roster path PR 4 already proved bit-identical to
:meth:`Ensemble.predict_probs` over the same subset; and the ensemble
error decomposition ("Diversity and Generalization in Neural Network
Ensembles", PAPERS.md) says dropping the members that deviate most from
the consensus costs the least — exactly the members the PR 7 health
scores rank highest ("higher is sicker").

:class:`PressureController` is the policy half:

* :meth:`observe` feeds it the same head-of-queue sojourn signal the
  admission controller sees.  Pressure = sojourn / target.
* ``sustain`` consecutive observations at or above ``enter_pressure``
  raise the degrade level by one; ``sustain`` consecutive observations
  at or below ``exit_pressure`` lower it by one.  The gap between the
  two thresholds plus the sustain count is the hysteresis: a roster
  change costs cache warmth and answer continuity, so the controller
  never flaps on a single noisy batch.
* :meth:`roster_for` maps the level to the served roster: level 0 keeps
  all T members, the maximum level keeps ``min_members``, intermediate
  levels interpolate linearly.  Members are ranked by health score
  (lower = healthier; ties broken by roster position, so the selection
  is deterministic) and the chosen K are returned **in roster order** —
  the order :meth:`InferenceService.finish` needs for its aggregation
  to stay bit-identical to a fresh sub-ensemble.

Members whose circuit breaker currently quarantines them never count
toward K: quarantine already removed them from the vote, and "serve the
K healthiest" must mean K *servable* members — a member reinstated
mid-brownout re-enters the ranking but the roster still caps at K.  When
the floor keeps every member (``min_members >= T``) no level browns
anything out, and the roster is the full one, quarantined members
included, exactly as at level 0.

Deterministic by construction (no randomness, no wall clock of its
own); thread-safety: the transport calls ``observe``/``roster_for``
from the pump thread and ``snapshot`` from health probes, so the
level state is guarded by a lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.concurrency import tracked_lock
from repro.serving.members import ServingMember

__all__ = ["PressureConfig", "PressureController"]


@dataclass
class PressureConfig:
    """Knobs for :class:`PressureController`.

    ``target_delay_ms`` should match the admission controller's target:
    brownout engages on the way *to* the shedding threshold, shrinking
    service time so fewer requests need shedding at all.
    """

    target_delay_ms: float = 20.0
    levels: int = 2                # maximum degrade level
    min_members: int = 1           # roster floor at the maximum level
    enter_pressure: float = 1.0    # sojourn/target ratio to degrade
    exit_pressure: float = 0.4     # sojourn/target ratio to restore
    sustain: int = 3               # consecutive observations to move

    def __post_init__(self) -> None:
        if self.target_delay_ms <= 0:
            raise ValueError(f"target_delay_ms must be positive, "
                             f"got {self.target_delay_ms}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.min_members < 1:
            raise ValueError(
                f"min_members must be >= 1, got {self.min_members}")
        if not 0 <= self.exit_pressure < self.enter_pressure:
            raise ValueError(
                f"need 0 <= exit_pressure < enter_pressure, got "
                f"{self.exit_pressure} / {self.enter_pressure}")
        if self.sustain < 1:
            raise ValueError(f"sustain must be >= 1, got {self.sustain}")


class PressureController:
    """Hysteretic queue-pressure → degrade-level state machine."""

    def __init__(self, config: PressureConfig = None):
        self.config = config or PressureConfig()
        self._lock = tracked_lock("pressure")
        self._level = 0
        self._above = 0            # consecutive observations >= enter
        self._below = 0            # consecutive observations <= exit
        self.last_pressure = 0.0
        self.level_changes = 0

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    # ------------------------------------------------------------------
    def observe(self, sojourn: float) -> int:
        """Feed one head-of-queue sojourn; returns the (new) level."""
        config = self.config
        pressure = sojourn / (config.target_delay_ms / 1000.0)
        with self._lock:
            self.last_pressure = pressure
            if pressure >= config.enter_pressure:
                self._above += 1
                self._below = 0
                if self._above >= config.sustain and \
                        self._level < config.levels:
                    self._level += 1
                    self._above = 0
                    self.level_changes += 1
            elif pressure <= config.exit_pressure:
                self._below += 1
                self._above = 0
                if self._below >= config.sustain and self._level > 0:
                    self._level -= 1
                    self._below = 0
                    self.level_changes += 1
            else:
                # Hysteresis band: neither counter advances.
                self._above = 0
                self._below = 0
            return self._level

    # ------------------------------------------------------------------
    def keep_count(self, total: int) -> int:
        """How many members level ``self.level`` keeps out of ``total``."""
        with self._lock:
            level = self._level
        if level <= 0 or total <= self.config.min_members:
            return total
        floor = min(self.config.min_members, total)
        span = total - floor
        return total - round(level * span / self.config.levels)

    def roster_for(self, members: Sequence[ServingMember],
                   scores: Dict[int, float],
                   ) -> Tuple[List[ServingMember], int]:
        """The healthiest-K servable sub-roster for the current level.

        ``scores`` maps original member index → health score (higher is
        sicker; missing means healthy, score 0).  Quarantined members
        are excluded before K is applied.  Returns the selection in
        roster order plus the level it was computed at.
        """
        with self._lock:
            level = self._level
        if level <= 0:
            return list(members), 0
        if len(members) <= self.config.min_members:
            # K = T browns nothing out: the full roster, so quarantined
            # members are skipped and reported as on every other path.
            return list(members), level
        servable = [(position, member)
                    for position, member in enumerate(members)
                    if not member.breaker.quarantined]
        keep = min(self.keep_count(len(members)), len(servable))
        ranked = sorted(servable,
                        key=lambda entry: (scores.get(entry[1].index, 0.0),
                                           entry[0]))
        chosen = sorted(ranked[:keep], key=lambda entry: entry[0])
        return [member for _, member in chosen], level

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Level + pressure for the health surface (one lock read)."""
        with self._lock:
            return {"level": self._level,
                    "last_pressure": self.last_pressure,
                    "level_changes": self.level_changes}
