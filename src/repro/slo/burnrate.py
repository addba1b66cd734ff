"""Multi-window multi-burn-rate SLO evaluation (the Google-SRE pager).

A **burn rate** is how fast a service is spending its error budget:
``burn = error_rate / (1 - target)``.  Burn 1.0 exactly exhausts the
budget over the SLO period; burn 14.4 exhausts a 30-day budget in two
days.  Paging on a single window is either noisy (short window) or
slow (long window), so each :class:`BurnWindow` pairs a long window
with a short **probe** window and alerts only when *both* exceed the
threshold -- the long window proves the burn is sustained, the probe
proves it is still happening (Google SRE Workbook ch. 5).

:class:`SLOEngine` holds a rolling history of cumulative good/total
event counts per objective (fed from ``MetricsRegistry.snapshot()``
dicts via :meth:`SLOEngine.observe`) and evaluates every
objective x window pair at each observation.  The clock is injectable
(:class:`repro.cluster.clock.SimClock` in tests and replays), so the
fired/resolved alert sequence is deterministic for a deterministic
snapshot sequence.  When a window starts burning the engine trips the
flight recorder -- an SLO burn is exactly the moment you want the
black box written, while the evidence is still in the ring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.metrics import MetricsRegistry
from repro.obs.logs import get_logger
from repro.slo.objectives import DEFAULT_OBJECTIVES, SLObjective

_LOG = get_logger("repro.slo.burnrate")


@dataclass(frozen=True)
class BurnWindow:
    """One (long window, probe window, threshold) alerting rule."""

    #: Stable identifier (a Prometheus label value).
    name: str
    #: Long lookback, seconds: proves the burn is sustained.
    window_s: float
    #: Short probe, seconds: proves the burn is still happening.
    probe_s: float
    #: Both windows must burn at/above this multiple of budget spend.
    max_burn: float

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.probe_s <= 0:
            raise ValueError("window_s and probe_s must be positive")
        if self.probe_s > self.window_s:
            raise ValueError("probe_s must not exceed window_s")
        if self.max_burn <= 0:
            raise ValueError("max_burn must be positive")


#: The classic 5m/1h fast page plus a 1h/6h slow ticket, scaled to
#: this repo's minutes-long campaigns: "fast" pages within one probe
#: of a hard outage, "slow" catches budget-nibbling degradation.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(name="fast", window_s=300.0, probe_s=25.0, max_burn=14.4),
    BurnWindow(name="slow", window_s=3600.0, probe_s=300.0, max_burn=6.0),
)


@dataclass
class Alert:
    """One fired/resolved transition in the deterministic sequence."""

    at: float
    objective: str
    window: str
    state: str  # "fired" | "resolved"
    burn_long: float
    burn_probe: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "objective": self.objective,
            "window": self.window,
            "state": self.state,
            "burn_long": self.burn_long,
            "burn_probe": self.burn_probe,
        }


@dataclass
class _History:
    """Rolling ``(t, good, total)`` samples for one objective."""

    samples: List[Tuple[float, int, int]] = field(default_factory=list)

    def append(self, t: float, good: int, total: int) -> None:
        self.samples.append((t, good, total))

    def trim(self, horizon: float) -> None:
        """Drop samples older than *horizon*, keeping one baseline
        sample at/before it so the longest window still differences
        against something."""
        cut = 0
        for index, (t, _, _) in enumerate(self.samples):
            if t < horizon:
                cut = index
            else:
                break
        if cut > 0:
            del self.samples[:cut]

    def rate_over(self, start: float) -> Optional[float]:
        """Error rate of events that arrived at/after *start*.

        Differences the newest sample against the newest sample
        at/before *start*; when history is shorter than the window the
        earliest sample is the baseline (a cold start burns from its
        first errors rather than waiting a full window).  ``None``
        when the window saw no events.
        """
        if not self.samples:
            return None
        baseline = self.samples[0]
        for sample in self.samples:
            if sample[0] <= start:
                baseline = sample
            else:
                break
        _, good_now, total_now = self.samples[-1]
        good = good_now - baseline[1]
        total = total_now - baseline[2]
        if total <= 0:
            return None
        return max(0.0, 1.0 - good / total)


class SLOEngine:
    """Evaluate objectives x windows over a snapshot stream."""

    def __init__(
        self,
        objectives: Optional[Sequence[SLObjective]] = None,
        windows: Optional[Sequence[BurnWindow]] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        flight: Optional[object] = None,
    ):
        self.objectives: Tuple[SLObjective, ...] = tuple(
            objectives if objectives is not None else DEFAULT_OBJECTIVES
        )
        names = [objective.name for objective in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError("objective names must be unique")
        self.windows: Tuple[BurnWindow, ...] = tuple(
            windows if windows is not None else DEFAULT_WINDOWS
        )
        self.clock = clock if clock is not None else time.monotonic
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register("slo")
        #: Optional :class:`repro.slo.flight.FlightRecorder`; tripped
        #: on every fired alert.
        self.flight = flight
        self._history: Dict[str, _History] = {
            objective.name: _History() for objective in self.objectives
        }
        #: (objective, window) pairs currently burning.
        self._burning: Dict[Tuple[str, str], bool] = {}
        #: Every fired/resolved transition, in evaluation order -- the
        #: deterministic alert sequence the acceptance test pins.
        self.alerts: List[Alert] = []

    # ------------------------------------------------------------------
    # observation

    def observe(
        self, snapshot: Dict[str, Any], at: Optional[float] = None
    ) -> List[Alert]:
        """Fold one metrics snapshot; returns transitions it caused."""
        t = self.clock() if at is None else float(at)
        horizon = t - max(window.window_s for window in self.windows)
        for objective in self.objectives:
            good, total = objective.events(snapshot)
            history = self._history[objective.name]
            history.append(t, good, total)
            history.trim(horizon)
        self.metrics.incr("slo_evaluations")
        return self._evaluate(t)

    def _evaluate(self, t: float) -> List[Alert]:
        transitions: List[Alert] = []
        for objective in self.objectives:
            history = self._history[objective.name]
            for window in self.windows:
                burn_long = self._burn(
                    history, objective, t - window.window_s
                )
                burn_probe = self._burn(
                    history, objective, t - window.probe_s
                )
                burning = (
                    burn_long is not None
                    and burn_probe is not None
                    and burn_long >= window.max_burn
                    and burn_probe >= window.max_burn
                )
                key = (objective.name, window.name)
                was_burning = self._burning.get(key, False)
                if burning == was_burning:
                    continue
                self._burning[key] = burning
                alert = Alert(
                    at=t,
                    objective=objective.name,
                    window=window.name,
                    state="fired" if burning else "resolved",
                    burn_long=burn_long or 0.0,
                    burn_probe=burn_probe or 0.0,
                )
                self.alerts.append(alert)
                transitions.append(alert)
                if burning:
                    self.metrics.incr("slo_alerts_fired")
                    self.metrics.incr("slo_windows_burning")
                    _LOG.warning(
                        "SLO burn alert fired",
                        extra={
                            "objective": objective.name,
                            "window": window.name,
                            "burn_long": alert.burn_long,
                            "burn_probe": alert.burn_probe,
                        },
                    )
                    if self.flight is not None:
                        self.flight.trip(
                            "slo-burn",
                            objective=objective.name,
                            window=window.name,
                            burn_long=round(alert.burn_long, 6),
                            burn_probe=round(alert.burn_probe, 6),
                        )
                else:
                    self.metrics.incr("slo_alerts_resolved")
                    self.metrics.incr("slo_windows_burning", -1)
                    _LOG.info(
                        "SLO burn alert resolved",
                        extra={
                            "objective": objective.name,
                            "window": window.name,
                        },
                    )
        return transitions

    def _burn(
        self, history: _History, objective: SLObjective, start: float
    ) -> Optional[float]:
        rate = history.rate_over(start)
        if rate is None:
            return None
        return rate / objective.budget

    # ------------------------------------------------------------------
    # export

    @property
    def burning(self) -> bool:
        """True while any objective x window pair is burning."""
        return any(self._burning.values())

    def status(self) -> Dict[str, Any]:
        """The full evaluation state as one JSON-able document
        (the ``/slo`` endpoint body and ``gendp-slo report --json``)."""
        t = (
            self._history[self.objectives[0].name].samples[-1][0]
            if self.objectives and self._history[self.objectives[0].name].samples
            else None
        )
        objectives = []
        for objective in self.objectives:
            history = self._history[objective.name]
            windows = []
            for window in self.windows:
                burn_long = (
                    self._burn(history, objective, t - window.window_s)
                    if t is not None
                    else None
                )
                burn_probe = (
                    self._burn(history, objective, t - window.probe_s)
                    if t is not None
                    else None
                )
                windows.append(
                    {
                        "window": window.name,
                        "max_burn": window.max_burn,
                        "burn_long": burn_long,
                        "burn_probe": burn_probe,
                        "burning": self._burning.get(
                            (objective.name, window.name), False
                        ),
                    }
                )
            doc = objective.to_dict()
            doc["windows"] = windows
            doc["burning"] = any(w["burning"] for w in windows)
            if history.samples:
                _, good, total = history.samples[-1]
                doc["events"] = {"good": good, "total": total}
            objectives.append(doc)
        return {
            "burning": self.burning,
            "evaluations": self.metrics.counter("slo_evaluations"),
            "objectives": objectives,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    def export_section(self) -> Dict[str, Dict[str, float]]:
        """Per-objective gauges for the labelled ``slo`` snapshot
        section (``gendp_slo_<metric>{objective=...}`` series)."""
        section: Dict[str, Dict[str, float]] = {}
        for doc in self.status()["objectives"]:
            gauges: Dict[str, float] = {
                "target": float(doc["target"]),
                "burning": 1.0 if doc["burning"] else 0.0,
            }
            for window in doc["windows"]:
                burn = window["burn_long"]
                if burn is not None:
                    gauges[f"burn_{window['window']}"] = float(burn)
            section[doc["name"]] = gauges
        return section

    def annotate(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Return *snapshot* with the ``slo`` section (and the
        evaluator's own counters) folded in for the exporters."""
        enriched = dict(snapshot)
        # Overwrite, not add: when the evaluator shares the engine's
        # registry these counters are already in the snapshot, and
        # adding would double-count them.
        enriched["counters"] = {
            **(enriched.get("counters") or {}),
            **self.metrics.family("slo"),
        }
        enriched["slo"] = self.export_section()
        return enriched


def synthesize_burn_replay(
    objective: Optional[SLObjective] = None,
    healthy_ticks: int = 6,
    burn_ticks: int = 6,
    tick_s: float = 10.0,
    events_per_tick: int = 50,
    mode: str = "burn",
) -> List[Dict[str, Any]]:
    """A deterministic ``[{"t": ..., "snapshot": ...}, ...]`` stream.

    Healthy ticks observe every event under the latency threshold;
    burn ticks (``mode="burn"``) push 100% of new events over it, so a
    fast window crosses ``max_burn`` within one probe interval.  Used
    by the acceptance test and ``gendp-slo synth`` (the CI replay).
    """
    objective = objective or DEFAULT_OBJECTIVES[0]
    if objective.kind != "latency":
        raise ValueError("replay synthesis models a latency objective")
    if mode not in ("burn", "healthy"):
        raise ValueError("mode must be 'burn' or 'healthy'")
    bounds = [objective.threshold_s, objective.threshold_s * 10.0]
    records: List[Dict[str, Any]] = []
    good = 0
    total = 0
    ticks = healthy_ticks + (burn_ticks if mode == "burn" else 0)
    for tick in range(ticks):
        burning = mode == "burn" and tick >= healthy_ticks
        total += events_per_tick
        if not burning:
            good += events_per_tick
        snapshot = {
            "counters": {},
            "histograms": {
                objective.histogram: {
                    "count": total,
                    "sum": 0.0,
                    "min": 0.0,
                    "max": bounds[-1],
                    "buckets": [
                        [bounds[0], good],
                        [bounds[1], total - good],
                        ["inf", 0],
                    ],
                }
            },
        }
        records.append({"t": (tick + 1) * tick_s, "snapshot": snapshot})
    return records
