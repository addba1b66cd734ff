"""One campaign driver: a seeded stream, one loop, one id-keyed ledger.

Every robustness claim in this repo -- zero lost jobs, exactly-once
under shard loss, crash-consistent recovery -- is checked by pushing a
deterministic job stream through a real service while faults fire, then
balancing what was accepted against what came back.  That loop exists
once, here.  :func:`drive` works on anything with the surface
:class:`~repro.engine.Engine` and
:class:`~repro.cluster.router.ClusterRouter` share (``submit``,
``drain``, ``recover``, ``journal``, ``metrics``, ``dead_letters``,
``replay_dead_letters``, ``close``): no adapter, and one duck-typed
branch -- to settle stragglers it calls the target's own
``drain_until_settled`` when it has one (a router can strand jobs behind
a partitioned shard for rounds) and one ``drain()`` otherwise.  The
faults ride in on the objects the target is built from
(``EngineConfig.fault_plan``, ``ClusterConfig.fault_plan``,
``DurabilityConfig.disk_faults``), so a scenario
(:mod:`repro.faults.chaos`, :mod:`repro.durable.campaign`,
:mod:`repro.cluster.chaos`) is a job list, a zero-argument target
factory and a projection of the :class:`Ledger` onto its report -- and
faults of different layers compose by building one target that carries
them all (``tests/faults/test_composed.py``).

``repro.engine`` is imported inside functions only: ``repro.faults``
must stay importable without the serving stack.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.plan import unit_draw
from repro.obs.logs import get_logger, log_context

_LOG = get_logger("repro.faults.campaign")

#: Chaos-safe engine kernels (pairhmm is excluded from the default mix
#: only because its reference oracle is the slowest; pass it explicitly
#: to stress the fixed-point tolerance path).
DEFAULT_KERNELS: Tuple[str, ...] = ("bsw", "lcs", "dtw", "chain")

#: Drain rounds the closing sweep gives a router to settle stragglers.
SETTLE_ROUNDS = 16
#: Restarts the closing sweep may spend on journal orphans (one can
#: outlive the stream when its resubmit write faulted in a recovery).
SWEEP_RESTARTS = 2


# ----------------------------------------------------------------------
# deterministic job stream


def check_stream_shape(config: Any) -> None:
    """Reject a campaign config the stream or the chunker cannot run."""
    if config.jobs <= 0:
        raise ValueError("jobs must be positive")
    if not config.kernels:
        raise ValueError("kernels must name at least one engine kernel")
    if config.chunk_jobs <= 0:
        raise ValueError("chunk_jobs must be positive")


def synthesize_stream(config: Any) -> List[Tuple[str, Dict[str, Any]]]:
    """A reproducible round-robin ``(kernel, payload)`` stream.

    *config* is any campaign config (``jobs`` / ``seed`` / ``kernels``).
    Payloads are deliberately small (tens to hundreds of DP cells):
    chaos campaigns measure survival accounting, not throughput, and
    small jobs keep a 200-job campaign inside a CI minute.
    """
    import random

    from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT
    from repro.seq.alphabet import random_sequence

    rng = random.Random(config.seed)
    stream: List[Tuple[str, Dict[str, Any]]] = []
    for index in range(config.jobs):
        kernel = config.kernels[index % len(config.kernels)]
        if kernel == "bsw":
            payload: Dict[str, Any] = {
                "query": random_sequence(14, rng),
                "target": random_sequence(10, rng),
            }
        elif kernel == "pairhmm":
            payload = {
                "read": random_sequence(12, rng),
                "haplotype": random_sequence(8, rng),
            }
        elif kernel == "lcs":
            payload = {
                "x": random_sequence(12, rng),
                "y": random_sequence(9, rng),
            }
        elif kernel == "dtw":
            payload = {
                "a": [rng.randint(0, 50) for _ in range(12)],
                "b": [rng.randint(0, 50) for _ in range(9)],
            }
        elif kernel == "chain":
            x = y = 0
            anchors = []
            for _ in range(12):
                x += rng.randint(5, 20)
                y += rng.randint(5, 20)
                anchors.append([x, y, DEFAULT_AVG_SEED_WEIGHT])
            payload = {"anchors": anchors}
        else:
            raise ValueError(f"gendp-chaos cannot synthesize kernel {kernel!r}")
        stream.append((kernel, payload))
    return stream


def decorated_jobs(
    config: Any, plan: Optional[Any] = None, affinity_stride: int = 0
) -> List[Any]:
    """The stream as jobs, each payload decorated by *plan*.

    With *affinity_stride*, job *i* carries ``_affinity = i % stride`` so
    one program's hash range subdivides across cluster shards.
    """
    from repro.engine.jobs import make_job

    jobs = []
    for index, (kernel, payload) in enumerate(synthesize_stream(config)):
        if affinity_stride > 0:
            payload = dict(payload, _affinity=index % affinity_stride)
        if plan is not None:
            payload, _kind = plan.decorate(index, payload)
        jobs.append(make_job(kernel, payload))
    return jobs


# ----------------------------------------------------------------------
# the ledger


@dataclass
class Ledger:
    """What a campaign accepted and what came back, keyed by job id.

    One definition for every scenario: a job is **lost** when its id
    was accepted and has no envelope; an envelope is a **duplicate**
    when its id already has one (first wins); an envelope whose id was
    never accepted is kept and counted (:attr:`unaccepted`), so it can
    never cancel a lost job.  Only a dead-letter replay announced
    through :meth:`supersede` may replace an envelope, and only a
    failed one.
    """

    #: id -> the job as the target accepted it (stamped payload).
    accepted: Dict[int, Any] = field(default_factory=dict)
    envelopes: Dict[int, Any] = field(default_factory=dict)
    shed_backpressure: int = 0
    #: Jobs refused because their accept record could not be journaled.
    shed_write_faults: int = 0
    duplicate_envelopes: int = 0
    #: ``kill -9`` coins that came up (sweep restarts are not crashes).
    crashes: int = 0
    #: One ``RecoveryReport`` per restart, in order.
    recoveries: List[Any] = field(default_factory=list)
    #: Every counter of every target generation's registry, summed.
    counters: Counter = field(default_factory=Counter)
    #: Dead letters still parked when the campaign ended.
    dead_letter_backlog: int = 0
    _replayed: Set[int] = field(default_factory=set, init=False, repr=False)

    def supersede(self, jobs: Sequence[Any]) -> None:
        """Dead letters went back in: their next envelopes replace the
        failed ones they hold instead of counting as duplicates."""
        self._replayed.update(job.job_id for job in jobs)

    def fold(self, results: Sequence[Any]) -> None:
        for result in results:
            held = self.envelopes.get(result.job_id)
            replay = result.job_id in self._replayed
            self._replayed.discard(result.job_id)
            if held is None or (replay and not held.ok):
                self.envelopes[result.job_id] = result
            else:
                self.duplicate_envelopes += 1

    @property
    def lost(self) -> int:
        return len(self.accepted.keys() - self.envelopes.keys())

    @property
    def unaccepted(self) -> int:
        """Envelopes for ids this campaign never accepted."""
        return len(self.envelopes.keys() - self.accepted.keys())

    @property
    def closes(self) -> bool:
        """Exactly-once: every accepted id settled once, nothing else."""
        return not (self.lost or self.unaccepted or self.duplicate_envelopes)

    @property
    def ok(self) -> int:
        return sum(result.ok for result in self.envelopes.values())

    @property
    def failed(self) -> int:
        return len(self.envelopes) - self.ok

    def failures_by_error(self) -> Counter:
        """Failed envelopes by error class (the text before the colon)."""
        return Counter(
            (result.error or "unknown").split(":", 1)[0]
            for result in self.envelopes.values()
            if not result.ok
        )

    def corruption_escapes(self) -> int:
        """The 100 % audit: ok envelopes that disagree with the reference
        kernels (or cannot be checked), whatever the engine's own sampled
        guard saw."""
        from repro.engine.runners import matches_reference

        escapes = 0
        for job_id, result in self.envelopes.items():
            job = self.accepted.get(job_id)
            if not result.ok or result.backend == "reference" or job is None:
                continue  # failed, served by the baseline, or unaccepted
            try:
                if not matches_reference(result.kernel, result.value, job.payload):
                    escapes += 1
            except Exception:
                escapes += 1
        return escapes


# ----------------------------------------------------------------------
# the loop


def drive(
    make_target: Callable[[], Any],
    jobs: Sequence[Any],
    chunk_jobs: int,
    *,
    seed: int = 0,
    crash_rate: float = 0.0,
    burst_factor_for: Callable[[int], int] = lambda chunk_index: 1,
    compact_every: int = 0,
    replay_rounds: int = 0,
    finish: Callable[[Any], Any] = lambda target: None,
) -> Tuple[Ledger, Any]:
    """Run *jobs* through ``make_target()`` in chunks.

    Returns ``(ledger, finish(target))``: *finish* reads, from the last
    target generation just before the driver closes it, the end state
    only the target can report (shard states, the journal's final fold).
    *make_target* must build a fresh generation over the same journal
    directory each call.  After each chunk's submissions a seeded coin
    (*crash_rate*) plays ``kill -9``: the queue dies with the target,
    the journal keeps its page cache, the next generation recovers.
    Every *compact_every*-th surviving chunk compacts the journal.  A
    burst chunk (*burst_factor_for*) also submits clean clones of itself
    past the queue bound, which must be shed, never half-accepted.
    After the stream the driver settles what is in flight, restarts
    while the journal still shows orphans, and replays dead letters for
    *replay_rounds*.
    """
    from repro.durable.journal import JournalError
    from repro.engine import BackpressureError
    from repro.engine.jobs import make_job

    ledger = Ledger()
    target = make_target()

    def restart() -> None:
        nonlocal target
        target.journal.crash()
        ledger.counters.update(target.metrics.counters)
        target.close()
        target = make_target()
        recovery = target.recover()
        ledger.recoveries.append(recovery)
        ledger.fold(recovery.drained)

    def settle() -> None:
        # The loop's one duck-typed branch: an Engine drain empties its
        # queue; a router strands jobs behind partitions, hence its own.
        closure = getattr(target, "drain_until_settled", None)
        ledger.fold(closure(SETTLE_ROUNDS) if closure else target.drain())

    def clean_clone(job: Any) -> Any:
        payload = {
            key: value
            for key, value in job.payload.items()
            if not key.startswith("_inject_")
        }
        return make_job(job.kernel, payload)

    _LOG.info(
        "campaign started", extra={"campaign_seed": seed, "campaign_jobs": len(jobs)}
    )
    try:
        with log_context(campaign_seed=seed):
            calm_chunks = 0
            for index, start in enumerate(range(0, len(jobs), chunk_jobs)):
                chunk = list(jobs[start : start + chunk_jobs])
                bursts = range(burst_factor_for(index) - 1)
                clones = [clean_clone(job) for _ in bursts for job in chunk]
                for job in chunk + clones:
                    try:
                        accepted = target.submit(job)
                    except BackpressureError:
                        ledger.shed_backpressure += 1
                    except (JournalError, OSError):
                        ledger.shed_write_faults += 1
                    else:
                        ledger.accepted[accepted.job_id] = accepted
                if unit_draw(seed, "crash", index) < crash_rate:
                    # After accepting a full chunk, nothing drained --
                    # the worst moment.
                    ledger.crashes += 1
                    restart()
                else:
                    calm_chunks += 1
                    if compact_every and calm_chunks % compact_every == 0:
                        target.journal.compact()
                ledger.fold(target.drain())

            settle()
            for _ in range(SWEEP_RESTARTS):
                journal = target.journal
                if journal is None or not journal.load_state()[0].orphans():
                    break
                restart()
                settle()
            # Replayed dead letters re-roll transient compile faults and
            # land on the reference path when their kernel is quarantined.
            for _ in range(replay_rounds):
                replayed = target.replay_dead_letters()
                if not replayed:
                    break
                ledger.supersede(replayed)
                settle()
            ledger.counters.update(target.metrics.counters)
            ledger.dead_letter_backlog = len(target.dead_letters)
        (_LOG.info if ledger.closes else _LOG.warning)(
            "campaign complete",
            extra={
                "campaign_seed": seed,
                "accepted": len(ledger.accepted),
                "lost": ledger.lost,
                "duplicates": ledger.duplicate_envelopes,
                "restarts": len(ledger.recoveries),
            },
        )
        return ledger, finish(target)
    finally:
        target.close()


# ----------------------------------------------------------------------
# reports


def counter_fields(
    counters: Counter, names: Sequence[str], *families: str
) -> Dict[str, int]:
    """Harvested counts for the report fields *names*, as keyword arguments.

    A field is fed by the one counter of *families* (rows of
    :data:`repro.engine.metrics.COUNTERS`) that is its name or ends in
    ``_<name>`` (``routed`` <- ``cluster_jobs_routed``); a field that no
    counter, or more than one, would feed is a ``KeyError``.
    """
    from repro.engine.metrics import COUNTERS

    schema = [counter for family in families for counter in COUNTERS[family]]
    harvested = {}
    for name in names:
        feeds = [c for c in schema if c == name or c.endswith("_" + name)]
        if len(feeds) != 1:
            raise KeyError(f"report field {name!r} is fed by {feeds}")
        harvested[name] = counters[feeds[0]]
    return harvested


def config_block(config: Any, echoed: Sequence[str], **fixed: Any) -> Dict[str, Any]:
    """A report's ``config`` echo: the *echoed* fields of *config*, tuples
    as lists, plus the *fixed* knobs the scenario ran under."""
    block = {name: getattr(config, name) for name in echoed}
    return json.loads(json.dumps({**block, **fixed}))


class JsonReport:
    """The one ``to_json`` every campaign report (guard's included) uses."""

    def to_json(self) -> str:
        """Canonical serialization (the byte-identity contract)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class CanonicalReport(JsonReport):
    """``to_dict`` for the three driver-scenario report dataclasses.

    The dataclass's fields plus its :attr:`DERIVED` properties -- counts
    and names only, mappings key-sorted, floats rounded to six places --
    so two same-config campaigns serialize byte-identically.
    """

    #: Properties reported after the fields.
    DERIVED: Tuple[str, ...] = ("survived",)

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-able, run-to-run-identical report."""
        document: Dict[str, Any] = {}
        for name in [spec.name for spec in fields(self)] + list(self.DERIVED):
            value = getattr(self, name)
            if isinstance(value, float):
                value = round(value, 6)
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            document[name] = value
        return document
