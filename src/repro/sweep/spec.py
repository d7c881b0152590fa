"""Declarative sweep specification: dataclasses + YAML/JSON loader.

A sweep spec is a small document (usually YAML, JSON works identically)
naming what to cover and how hard to check it:

.. code-block:: yaml

    name: smoke
    seed: 11
    shots: 6000                 # total shot budget per cell
    sampler: exhaustive          # or "probabilistic"
    sampler_options: {cutoff: 1.0e-5}
    strategies: [serial, vectorized]
    oracle:
      distribution_max_qubits: 6
      tvd_tolerance: 0.06
    sweeps:
      - family: ghz
        widths: [3, 5]
        profiles: [superconducting_median]
      - family: bernstein_vazirani
        widths: [4, 6]
        profiles: [uniform_depolarizing]

``sweeps`` entries cross their ``widths`` with their ``profiles``; the
global axes (shot budget, sampler, strategies, oracle) apply to every
resulting cell.  An entry may carry its own ``strategies: [clifford]``
override — how a wide Clifford family runs past the dense width cap
while the rest of the spec keeps the dense cross-strategy matrix.  Validation happens at construction: unknown families,
profiles, or strategies fail with the list of registered names, so a typo
dies before any state is prepared.  Widths *outside a family's registered
range* are not errors — the runner marks those cells ``skip`` so one spec
can sweep families of different reach.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.channels.standard import profile_names
from repro.circuits.library import workload_names
from repro.errors import SweepError

__all__ = [
    "SweepSpecError",
    "OracleSpec",
    "FamilySweep",
    "CellSpec",
    "SweepSpec",
    "spec_from_dict",
    "load_spec",
]

#: Samplers the runner knows how to construct (see runner.make_sampler).
VALID_SAMPLERS = ("exhaustive", "probabilistic")


class SweepSpecError(SweepError):
    """Invalid sweep specification."""


@dataclass(frozen=True)
class OracleSpec:
    """Which conformance tiers run, and how tight their tolerances are.

    ``distribution_max_qubits`` caps the density-matrix tier (4**n memory);
    ``tvd_tolerance`` is the *sampling* allowance on top of the spec's
    un-enumerated probability mass (the oracle adds ``1 - coverage``
    itself); ``chi_square_alpha`` is the false-positive rate of the
    chi-square test, which only runs when coverage is near-complete
    (see :func:`repro.sweep.oracle.check_distribution`).
    """

    strategy_equivalence: bool = True
    streaming: bool = True
    distribution_max_qubits: int = 6
    tvd_tolerance: float = 0.06
    chi_square_alpha: float = 1e-4

    def validate(self) -> "OracleSpec":
        if self.distribution_max_qubits < 0:
            raise SweepSpecError("distribution_max_qubits must be >= 0")
        if not (0.0 < self.tvd_tolerance < 1.0):
            raise SweepSpecError(
                f"tvd_tolerance must be in (0, 1), got {self.tvd_tolerance}"
            )
        if not (0.0 < self.chi_square_alpha < 1.0):
            raise SweepSpecError(
                f"chi_square_alpha must be in (0, 1), got {self.chi_square_alpha}"
            )
        return self


@dataclass(frozen=True)
class FamilySweep:
    """One circuit family crossed with widths and device noise profiles.

    ``strategies`` optionally overrides the sweep-level strategy list for
    this entry's cells — how a wide Clifford family routes around the
    dense width cap (``[clifford]``) while the rest of the spec keeps the
    dense cross-strategy matrix.
    """

    family: str
    widths: Tuple[int, ...]
    profiles: Tuple[str, ...]
    strategies: Optional[Tuple[str, ...]] = None
    #: Per-cell wall-clock budget override for this entry (seconds);
    #: ``None`` inherits :attr:`SweepSpec.cell_budget_seconds`.
    budget_seconds: Optional[float] = None

    def validate(self) -> "FamilySweep":
        from repro.execution.batched import STRATEGIES

        if self.family not in workload_names():
            raise SweepSpecError(
                f"unknown workload family {self.family!r}; "
                f"registered: {', '.join(workload_names())}"
            )
        if self.strategies is not None:
            if not self.strategies:
                raise SweepSpecError(
                    f"family {self.family!r}: strategies override must be "
                    "non-empty (omit it to inherit the sweep-level list)"
                )
            for s in self.strategies:
                if s not in STRATEGIES:
                    raise SweepSpecError(
                        f"family {self.family!r}: unknown strategy {s!r}; "
                        f"valid: {', '.join(sorted(STRATEGIES))}"
                    )
            if len(set(self.strategies)) != len(self.strategies):
                raise SweepSpecError(
                    f"family {self.family!r}: strategies must be unique"
                )
        if not self.widths:
            raise SweepSpecError(f"family {self.family!r}: widths must be non-empty")
        for w in self.widths:
            if not isinstance(w, int) or w < 1:
                raise SweepSpecError(
                    f"family {self.family!r}: widths must be positive ints, got {w!r}"
                )
        if not self.profiles:
            raise SweepSpecError(f"family {self.family!r}: profiles must be non-empty")
        for p in self.profiles:
            if p not in profile_names():
                raise SweepSpecError(
                    f"unknown noise profile {p!r}; "
                    f"registered: {', '.join(profile_names())}"
                )
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise SweepSpecError(
                f"family {self.family!r}: budget_seconds must be positive, "
                f"got {self.budget_seconds}"
            )
        return self


@dataclass(frozen=True)
class CellSpec:
    """One fully-expanded sweep cell: (family, width, profile) + run config."""

    family: str
    width: int
    profile: str
    shots: int
    sampler: str
    sampler_options: Tuple[Tuple[str, Any], ...]
    seed: int
    #: Strategies this cell runs (the family entry's override, else the
    #: sweep-level list — already resolved by :meth:`SweepSpec.expand`).
    strategies: Tuple[str, ...] = ("serial", "vectorized")
    #: Wall-clock budget for the whole cell (seconds); exceeding it marks
    #: the cell ``timeout`` in the matrix.  ``None`` = unbudgeted.
    budget_seconds: Optional[float] = None

    @property
    def cell_id(self) -> str:
        return f"{self.family}_w{self.width}_{self.profile}"

    def __repr__(self) -> str:
        return f"CellSpec({self.cell_id}, shots={self.shots}, sampler={self.sampler})"


@dataclass(frozen=True)
class SweepSpec:
    """The whole declarative sweep: global axes + per-family sweeps."""

    name: str
    sweeps: Tuple[FamilySweep, ...]
    strategies: Tuple[str, ...] = ("serial", "vectorized")
    shots: int = 20_000
    sampler: str = "exhaustive"
    sampler_options: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 7
    oracle: OracleSpec = field(default_factory=OracleSpec)
    #: Default per-cell wall-clock budget (seconds); a cell exceeding it
    #: is reported ``timeout`` (nonzero exit under ``--strict``).  Family
    #: entries may override via :attr:`FamilySweep.budget_seconds`.
    cell_budget_seconds: Optional[float] = None

    def validate(self) -> "SweepSpec":
        from repro.execution.batched import STRATEGIES

        if not self.name:
            raise SweepSpecError("sweep needs a non-empty name")
        if not self.sweeps:
            raise SweepSpecError("sweep needs at least one family entry")
        if not self.strategies:
            raise SweepSpecError("sweep needs at least one strategy")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise SweepSpecError(
                    f"unknown strategy {s!r}; valid: "
                    f"{', '.join(sorted(STRATEGIES))}"
                )
        if len(set(self.strategies)) != len(self.strategies):
            raise SweepSpecError("strategies must be unique")
        if self.shots < 1:
            raise SweepSpecError(f"shots must be positive, got {self.shots}")
        if self.sampler not in VALID_SAMPLERS:
            raise SweepSpecError(
                f"unknown sampler {self.sampler!r}; valid: {', '.join(VALID_SAMPLERS)}"
            )
        if self.cell_budget_seconds is not None and self.cell_budget_seconds <= 0:
            raise SweepSpecError(
                f"cell_budget_seconds must be positive, got "
                f"{self.cell_budget_seconds}"
            )
        self.oracle.validate()
        for sweep in self.sweeps:
            sweep.validate()
        return self

    def expand(self) -> List[CellSpec]:
        """Cross every family entry's widths × profiles into cells.

        Cell order is deterministic (spec order, widths outer, profiles
        inner) and duplicate (family, width, profile) triples are
        rejected — each cell must name one unambiguous scenario.
        """
        cells: List[CellSpec] = []
        seen = set()
        for sweep in self.sweeps:
            for width in sweep.widths:
                for profile in sweep.profiles:
                    key = (sweep.family, width, profile)
                    if key in seen:
                        raise SweepSpecError(
                            f"duplicate sweep cell {sweep.family}_w{width}_{profile}"
                        )
                    seen.add(key)
                    cells.append(
                        CellSpec(
                            family=sweep.family,
                            width=width,
                            profile=profile,
                            shots=self.shots,
                            sampler=self.sampler,
                            sampler_options=self.sampler_options,
                            seed=self.seed,
                            strategies=(
                                sweep.strategies
                                if sweep.strategies is not None
                                else self.strategies
                            ),
                            budget_seconds=(
                                sweep.budget_seconds
                                if sweep.budget_seconds is not None
                                else self.cell_budget_seconds
                            ),
                        )
                    )
        return cells

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable plain-dict form (report provenance)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "shots": self.shots,
            "sampler": self.sampler,
            "sampler_options": dict(self.sampler_options),
            "strategies": list(self.strategies),
            **(
                {"cell_budget_seconds": self.cell_budget_seconds}
                if self.cell_budget_seconds is not None
                else {}
            ),
            "oracle": {
                "strategy_equivalence": self.oracle.strategy_equivalence,
                "streaming": self.oracle.streaming,
                "distribution_max_qubits": self.oracle.distribution_max_qubits,
                "tvd_tolerance": self.oracle.tvd_tolerance,
                "chi_square_alpha": self.oracle.chi_square_alpha,
            },
            "sweeps": [
                {
                    "family": s.family,
                    "widths": list(s.widths),
                    "profiles": list(s.profiles),
                    **(
                        {"strategies": list(s.strategies)}
                        if s.strategies is not None
                        else {}
                    ),
                    **(
                        {"budget_seconds": s.budget_seconds}
                        if s.budget_seconds is not None
                        else {}
                    ),
                }
                for s in self.sweeps
            ],
        }


def _require_mapping(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SweepSpecError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown_keys(data: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SweepSpecError(
            f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def spec_from_dict(data: Mapping[str, Any]) -> SweepSpec:
    """Build and validate a :class:`SweepSpec` from a plain mapping."""
    data = _require_mapping(data, "sweep spec")
    _reject_unknown_keys(
        data,
        ("name", "seed", "shots", "sampler", "sampler_options", "strategies",
         "oracle", "sweeps", "cell_budget_seconds"),
        "sweep spec",
    )
    oracle_data = _require_mapping(data.get("oracle", {}), "oracle")
    _reject_unknown_keys(
        oracle_data,
        ("strategy_equivalence", "streaming", "distribution_max_qubits",
         "tvd_tolerance", "chi_square_alpha"),
        "oracle",
    )
    defaults = OracleSpec()
    oracle = OracleSpec(
        strategy_equivalence=bool(
            oracle_data.get("strategy_equivalence", defaults.strategy_equivalence)
        ),
        streaming=bool(oracle_data.get("streaming", defaults.streaming)),
        distribution_max_qubits=int(
            oracle_data.get("distribution_max_qubits", defaults.distribution_max_qubits)
        ),
        tvd_tolerance=float(oracle_data.get("tvd_tolerance", defaults.tvd_tolerance)),
        chi_square_alpha=float(
            oracle_data.get("chi_square_alpha", defaults.chi_square_alpha)
        ),
    )
    sweeps = []
    entries = data.get("sweeps")
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise SweepSpecError("sweeps must be a list of family entries")
    for i, entry in enumerate(entries):
        entry = _require_mapping(entry, f"sweeps[{i}]")
        _reject_unknown_keys(
            entry,
            ("family", "widths", "profiles", "strategies", "budget_seconds"),
            f"sweeps[{i}]",
        )
        try:
            widths = tuple(int(w) for w in entry["widths"])
            profiles = tuple(str(p) for p in entry["profiles"])
            family = str(entry["family"])
        except KeyError as exc:
            raise SweepSpecError(f"sweeps[{i}] missing required key {exc}")
        entry_strategies = (
            tuple(str(s) for s in entry["strategies"])
            if "strategies" in entry
            else None
        )
        entry_budget = (
            float(entry["budget_seconds"]) if "budget_seconds" in entry else None
        )
        sweeps.append(
            FamilySweep(
                family=family,
                widths=widths,
                profiles=profiles,
                strategies=entry_strategies,
                budget_seconds=entry_budget,
            )
        )
    sampler_options = _require_mapping(
        data.get("sampler_options", {}), "sampler_options"
    )
    budget = data.get("cell_budget_seconds")
    spec = SweepSpec(
        name=str(data.get("name", "sweep")),
        sweeps=tuple(sweeps),
        strategies=tuple(str(s) for s in data.get("strategies", ("serial", "vectorized"))),
        shots=int(data.get("shots", 20_000)),
        sampler=str(data.get("sampler", "exhaustive")),
        sampler_options=tuple(sorted(sampler_options.items())),
        seed=int(data.get("seed", 7)),
        oracle=oracle,
        cell_budget_seconds=float(budget) if budget is not None else None,
    )
    return spec.validate()


def load_spec(path: str) -> SweepSpec:
    """Load a sweep spec from a YAML or JSON file.

    YAML is parsed when PyYAML is importable; otherwise (and always for
    ``.json`` paths) the file is read as JSON — so a JSON spec keeps the
    harness fully usable on a box without PyYAML.
    """
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return spec_from_dict(json.loads(text))
    try:
        import yaml
    except ImportError:
        try:
            return spec_from_dict(json.loads(text))
        except json.JSONDecodeError:
            raise SweepSpecError(
                f"{path}: PyYAML is not installed and the file is not valid "
                "JSON; install pyyaml or provide a .json spec"
            )
    data = yaml.safe_load(text)
    return spec_from_dict(data)
