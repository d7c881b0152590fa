"""Deterministic, seed-driven fault injection plans.

A :class:`FaultPlan` describes *which* named faults fire at *which*
instrumented sites of the execution layer.  The executors consult it
through :func:`maybe_inject` at the top of every work unit (one
``<strategy>/stack`` task of the shared driver, in whichever process runs
it); with no plan configured the hook is a single ``is None`` check, so
the production path pays nothing.

Two ways to target faults:

* **Rules** — explicit :class:`FaultSpec` entries matching unit names by
  ``fnmatch`` glob (``worker-crash`` at ``parallel/stack:0:1``,
  ``transient-backend`` at ``vectorized/stack:*``).  A rule fires on
  attempts ``0 .. times-1`` of a matching unit, so ``times=1`` (default)
  injects once and lets the retry succeed, while a large ``times``
  exhausts the retry budget deterministically.
* **Rate** — probabilistic chaos: each unit's *first* attempt draws from
  the dedicated fault stream (:func:`repro.rng.fault_rng`, keyed off the
  run's root seed) and fails with probability ``rate``.  Restricting the
  draw to attempt 0 means a random-mode run always recovers under the
  default retry policy — and the same seed reproduces the exact same
  fault pattern, which is what makes the chaos suite assertable.

Plans are frozen and picklable: they travel to the pool workers of a
dense executor run with ``num_workers > 1``, where the hook fires inside
the worker process under the same plan as an in-process site.

Unit-name scheme — one, for every strategy name::

    <strategy>/stack:{a}:{b}     one task over dedup groups [a, b)

In-process a task is one prepared unit.  On every engine whose rows are
independent (``serial``, ``vectorized``, ``sharded``, ``clifford``) the
first is ``stack:0:1``, dedup group 0 alone; after it come ``max_rows``
groups from group 1 for ``vectorized`` and ``sharded``
(``stack:1:65``, ..., ranges of the groups in the trie order the driver
puts them in), one group (``stack:{i}:{i+1}``) for ``serial``,
and for ``clifford`` as many groups as fit ``max_unit_shots`` (2**16)
shots.  ``tensornet``, whose rows share truncation ranks
(``coupled_rows``), cuts ``max_rows`` groups from group 0.  Over a pool
of ``W`` workers a task is ``ceil(groups / 4W)`` groups.
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import BackendError, CapacityError, ExecutionError, WorkerCrashError
from repro.rng import FAULT_NS_INJECTION, fault_rng

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "maybe_inject",
    "parse_fault_plan",
]

#: The injectable fault kinds, mirroring the failure modes a pooled-device
#: PTSBE service actually sees.
FAULT_KINDS = (
    "worker-crash",  # hard worker death -> WorkerCrashError (retry)
    "transient-backend",  # recoverable backend hiccup -> BackendError (retry)
    "capacity",  # mid-run OOM -> CapacityError (batch-halving ladder)
    "slow-worker",  # straggler: the unit sleeps, then succeeds
)


def _fault_exception(kind: str, site: str, attempt: int) -> Exception:
    message = f"injected {kind} fault at {site!r} (attempt {attempt})"
    if kind == "worker-crash":
        return WorkerCrashError(message)
    if kind == "capacity":
        return CapacityError(message)
    return BackendError(message)


@dataclass(frozen=True)
class FaultSpec:
    """One targeted fault: ``kind`` at units matching the ``site`` glob.

    ``times`` is how many *consecutive attempts* of a matching unit the
    fault hits (attempts ``0 .. times-1``); the default of 1 lets the
    first retry succeed.
    """

    kind: str
    site: str
    times: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.times < 1:
            raise ExecutionError(f"fault times must be >= 1, got {self.times}")

    def matches(self, site: str, attempt: int) -> bool:
        return attempt < self.times and fnmatch.fnmatchcase(site, self.site)


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, picklable description of the faults a run injects.

    Attributes
    ----------
    rules:
        Targeted :class:`FaultSpec` entries, checked in order (first
        match wins).
    rate:
        Probability in ``[0, 1]`` that a unit's first attempt fails with
        a random kind from ``kinds``, drawn from the seed-derived fault
        stream.  ``0.0`` (default) disables random mode.
    kinds:
        The kind pool random mode draws from.
    slow_seconds:
        Sleep duration of a ``slow-worker`` fault.
    """

    rules: Tuple[FaultSpec, ...] = ()
    rate: float = 0.0
    kinds: Tuple[str, ...] = ("transient-backend",)
    slow_seconds: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if not 0.0 <= self.rate <= 1.0:
            raise ExecutionError(f"fault rate must be in [0, 1], got {self.rate}")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ExecutionError(
                    f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}"
                )
        if self.rate > 0.0 and not self.kinds:
            raise ExecutionError("random-mode fault plan needs at least one kind")
        if self.slow_seconds < 0.0:
            raise ExecutionError("slow_seconds must be >= 0")

    def fault_at(self, site: str, attempt: int, seed: int) -> Optional[str]:
        """The fault kind firing at ``(site, attempt)``, or ``None``.

        Pure: the same ``(plan, site, attempt, seed)`` always decides the
        same way, in any process.
        """
        for rule in self.rules:
            if rule.matches(site, attempt):
                return rule.kind
        if self.rate > 0.0 and attempt == 0:
            rng = fault_rng(seed, FAULT_NS_INJECTION, site, attempt)
            if rng.random() < self.rate:
                return self.kinds[int(rng.integers(len(self.kinds)))]
        return None


def maybe_inject(
    plan: Optional[FaultPlan], site: str, attempt: int, seed: int
) -> None:
    """Fault-injection hook: raise (or stall) if the plan says so.

    The zero-overhead contract: with ``plan is None`` this is one branch.
    """
    if plan is None:
        return
    kind = plan.fault_at(site, attempt, seed)
    if kind is None:
        return
    if kind == "slow-worker":
        time.sleep(plan.slow_seconds)
        return
    raise _fault_exception(kind, site, attempt)


def parse_fault_plan(text: str) -> Optional[FaultPlan]:
    """Parse the ``REPRO_FAULTS`` environment syntax into a plan.

    Directives are separated by ``;``:

    * ``KIND@GLOB`` — a targeted rule, e.g.
      ``transient-backend@vectorized/stack:*``;
    * ``KIND@GLOB#N`` — the same rule hitting the first ``N`` attempts,
      e.g. ``worker-crash@parallel/stack:0:1#2``;
    * ``random:RATE`` or ``random:RATE:KIND,KIND`` — random mode, e.g.
      ``random:0.2:transient-backend,slow-worker``.

    Empty input returns ``None`` (faults disabled).  Malformed input
    raises :class:`~repro.errors.ExecutionError` naming the directive.
    """
    text = text.strip()
    if not text:
        return None
    rules = []
    rate = 0.0
    kinds: Tuple[str, ...] = ("transient-backend",)
    for directive in text.split(";"):
        directive = directive.strip()
        if not directive:
            continue
        if directive.startswith("random:"):
            parts = directive.split(":")
            if len(parts) not in (2, 3):
                raise ExecutionError(
                    f"malformed REPRO_FAULTS directive {directive!r}; expected "
                    "random:RATE or random:RATE:KIND,KIND"
                )
            try:
                rate = float(parts[1])
            except ValueError:
                raise ExecutionError(
                    f"malformed REPRO_FAULTS rate in {directive!r}"
                ) from None
            if len(parts) == 3:
                kinds = tuple(k.strip() for k in parts[2].split(",") if k.strip())
            continue
        if "@" not in directive:
            raise ExecutionError(
                f"malformed REPRO_FAULTS directive {directive!r}; expected "
                "KIND@SITE-GLOB[#TIMES] or random:RATE[:KINDS]"
            )
        kind, _, site = directive.partition("@")
        times = 1
        if "#" in site:
            site, _, raw_times = site.rpartition("#")
            try:
                times = int(raw_times)
            except ValueError:
                raise ExecutionError(
                    f"malformed REPRO_FAULTS times in {directive!r}"
                ) from None
        rules.append(FaultSpec(kind=kind.strip(), site=site.strip(), times=times))
    return FaultPlan(rules=tuple(rules), rate=rate, kinds=kinds)
