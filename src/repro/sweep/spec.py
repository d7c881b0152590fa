"""Declarative sweep specification: dataclasses + a field-driven loader.

A sweep spec is a small document (usually YAML, JSON works identically)
naming what to cover and how hard to check it:

.. code-block:: yaml

    name: smoke                 # required
    seed: 11
    shots: 6000                 # total shot budget per cell
    sampler: exhaustive          # or "probabilistic"
    sampler_options: {cutoff: 1.0e-5}
    strategies: [serial, vectorized]
    cell_budget_seconds: 300     # optional per-cell wall-clock budget
    oracle:
      distribution_max_qubits: 6
      tvd_tolerance: 0.06
    sweeps:                      # required
      - family: ghz
        widths: [3, 5]
        profiles: [superconducting_median]
      - family: surface_syndrome
        widths: [33]
        profiles: [uniform_depolarizing]
        strategies: [clifford]   # optional per-entry override
        budget_seconds: 600      # optional per-entry budget

The keys are the fields of :class:`SweepSpec`, :class:`OracleSpec` and
:class:`FamilySweep`, and each default lives only on its dataclass:
:func:`spec_from_dict` reads ``dataclasses.fields``, rejects an unknown
key, names a missing required one, and rejects a value of the wrong type
instead of coercing it (``widths: "35"`` is an error, not ``(3, 5)``).
An ``int`` is accepted where a ``float`` is declared; nothing else
converts.

``sweeps`` entries cross their ``widths`` with their ``profiles``; the
global axes (shot budget, sampler, strategies, oracle) apply to every
resulting cell.  An entry's own ``strategies`` override is how a wide
Clifford family runs past the dense width cap while the rest of the spec
keeps the dense cross-strategy matrix.  Unknown families, profiles,
strategies or samplers fail with the registered names, so a typo dies
before any state is prepared.  Widths *outside a family's registered
range* are not errors — the runner marks those cells ``skip`` so one spec
can sweep families of different reach.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

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

#: A mapping field (``sampler_options``), held as sorted ``(key, value)``
#: pairs so the frozen dataclasses stay hashable.
Options = Tuple[Tuple[str, Any], ...]


class SweepSpecError(SweepError):
    """Invalid sweep specification."""


def _check_strategies(strategies: Tuple[str, ...], where: str) -> None:
    from repro.execution.batched import STRATEGIES

    if not strategies:
        raise SweepSpecError(f"{where}: strategies must be non-empty")
    for s in strategies:
        if s not in STRATEGIES:
            raise SweepSpecError(
                f"{where}: unknown strategy {s!r}; valid: {', '.join(sorted(STRATEGIES))}"
            )
    if len(set(strategies)) != len(strategies):
        raise SweepSpecError(f"{where}: strategies must be unique")


def _check_budget(budget: Optional[float], where: str) -> None:
    if budget is not None and budget <= 0:
        raise SweepSpecError(f"{where} must be positive, got {budget}")


@dataclass(frozen=True)
class OracleSpec:
    """How tight the distribution tier is (the exact tiers always run).

    ``distribution_max_qubits`` caps the density-matrix tier (4**n memory);
    ``tvd_tolerance`` is the *sampling* allowance on top of the run's
    uncovered trajectory weight (the oracle adds
    ``PTSBEResult.uncovered_mass`` itself).  See :func:`repro.sweep.oracle.check_distribution`.
    """

    distribution_max_qubits: int = 6
    tvd_tolerance: float = 0.06

    def validate(self) -> "OracleSpec":
        if self.distribution_max_qubits < 0:
            raise SweepSpecError("distribution_max_qubits must be >= 0")
        if not (0.0 < self.tvd_tolerance < 1.0):
            raise SweepSpecError(
                f"tvd_tolerance must be in (0, 1), got {self.tvd_tolerance}"
            )
        return self


@dataclass(frozen=True)
class FamilySweep:
    """One circuit family crossed with widths and device noise profiles.

    ``strategies`` optionally overrides the sweep-level strategy list for
    this entry's cells, and ``budget_seconds`` the sweep-level
    :attr:`SweepSpec.cell_budget_seconds`.
    """

    family: str
    widths: Tuple[int, ...]
    profiles: Tuple[str, ...]
    strategies: Optional[Tuple[str, ...]] = None
    budget_seconds: Optional[float] = None

    def validate(self) -> "FamilySweep":
        where = f"family {self.family!r}"
        if self.family not in workload_names():
            raise SweepSpecError(
                f"unknown workload family {self.family!r}; "
                f"registered: {', '.join(workload_names())}"
            )
        if self.strategies is not None:
            _check_strategies(self.strategies, where)
        if not self.widths:
            raise SweepSpecError(f"{where}: widths must be non-empty")
        if any(w < 1 for w in self.widths):
            raise SweepSpecError(f"{where}: widths must be positive, got {self.widths}")
        if not self.profiles:
            raise SweepSpecError(f"{where}: profiles must be non-empty")
        for p in self.profiles:
            if p not in profile_names():
                raise SweepSpecError(
                    f"unknown noise profile {p!r}; "
                    f"registered: {', '.join(profile_names())}"
                )
        _check_budget(self.budget_seconds, f"{where}: budget_seconds")
        return self


@dataclass(frozen=True)
class CellSpec:
    """One fully-expanded sweep cell: (family, width, profile) + run config."""

    family: str
    width: int
    profile: str
    shots: int
    sampler: str
    sampler_options: Options
    seed: int
    #: Strategies this cell runs: the family entry's override, else the
    #: sweep-level list.
    strategies: Tuple[str, ...]
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
    sampler_options: Options = ()
    seed: int = 7
    oracle: OracleSpec = field(default_factory=OracleSpec)
    #: Default per-cell wall-clock budget (seconds); a cell exceeding it
    #: is reported ``timeout`` (nonzero exit under ``--strict``).
    cell_budget_seconds: Optional[float] = None

    def validate(self) -> "SweepSpec":
        if not self.name:
            raise SweepSpecError("sweep needs a non-empty name")
        if not self.sweeps:
            raise SweepSpecError("sweep needs at least one family entry")
        _check_strategies(self.strategies, "sweep")
        if self.shots < 1:
            raise SweepSpecError(f"shots must be positive, got {self.shots}")
        if self.sampler not in VALID_SAMPLERS:
            raise SweepSpecError(
                f"unknown sampler {self.sampler!r}; valid: {', '.join(VALID_SAMPLERS)}"
            )
        _check_budget(self.cell_budget_seconds, "cell_budget_seconds")
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
                    cell = CellSpec(
                        family=sweep.family,
                        width=width,
                        profile=profile,
                        shots=self.shots,
                        sampler=self.sampler,
                        sampler_options=self.sampler_options,
                        seed=self.seed,
                        strategies=sweep.strategies or self.strategies,
                        budget_seconds=(
                            sweep.budget_seconds
                            if sweep.budget_seconds is not None
                            else self.cell_budget_seconds
                        ),
                    )
                    key = (sweep.family, width, profile)
                    if key in seen:
                        raise SweepSpecError(f"duplicate sweep cell {cell.cell_id}")
                    seen.add(key)
                    cells.append(cell)
        return cells

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form without ``None`` fields; :func:`spec_from_dict`
        reads it back to an equal spec (report provenance)."""
        out = asdict(self, dict_factory=lambda kv: {k: v for k, v in kv if v is not None})
        out["sampler_options"] = dict(self.sampler_options)
        return out


def _require_mapping(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SweepSpecError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _convert(hint: Any, value: Any, key: str) -> Any:
    """``value`` checked against the field type ``hint``; only an int widens to a float."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _convert(args[0], value, key)
    if hint == Options:
        pairs = _require_mapping(value, key).items()
        return tuple(sorted((_convert(str, k, key), v) for k, v in pairs))
    if origin is tuple:  # Tuple[X, ...]
        if not isinstance(value, Sequence) or isinstance(value, str):
            raise SweepSpecError(f"{key}: expected a list, got {value!r}")
        return tuple(_convert(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if is_dataclass(hint):
        return _load(hint, value, key)
    allowed = (int, float) if hint is float else (hint,)
    if not isinstance(value, allowed) or (hint is not bool and isinstance(value, bool)):
        raise SweepSpecError(
            f"{key}: expected {hint.__name__}, got {type(value).__name__} {value!r}"
        )
    return float(value) if hint is float else value


def _load(cls: type, data: Any, where: str) -> Any:
    """One dataclass from a mapping, key by key from its ``fields``."""
    data = _require_mapping(data, where)
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise SweepSpecError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(names)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = _convert(hints[f.name], data[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SweepSpecError(f"{where}: missing required key {f.name!r}")
    return cls(**kwargs)


def spec_from_dict(data: Mapping[str, Any]) -> SweepSpec:
    """Build and validate a :class:`SweepSpec` from a plain mapping."""
    return _load(SweepSpec, data, "spec").validate()


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
    return spec_from_dict(yaml.safe_load(text))
