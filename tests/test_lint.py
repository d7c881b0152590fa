"""Tests for ``repro.lint``: every rule catches a seeded violation.

Each rule gets positive fixtures (a planted violation the rule must
flag) and negative fixtures (the sanctioned idiom it must stay quiet
on), plus coverage of the suppression comments, baseline round-trip,
CLI exit codes, and a meta-test asserting the live codebase is
lint-clean against the committed baseline.

Fixture trees are tiny synthetic source roots laid out like
``src/repro`` (rules scope themselves by relative path), written to
``tmp_path`` and linted via the public :func:`repro.lint.run_lint`.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    BaselineEntry,
    LintError,
    Project,
    all_rules,
    default_baseline_path,
    default_root,
    load_baseline,
    partition,
    run_lint,
    write_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.context import FileContext


def make_tree(root: Path, files: dict) -> Path:
    """Write a fixture source tree: relative path -> source text."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def rule_ids(findings) -> list:
    return [f.rule for f in findings]


#: The bundled rule catalogue.
RULE_IDS = ("DET001", "ERR001", "RNG001", "STRAT001")


# --------------------------------------------------------------------- #
# RNG001: unmanaged randomness
# --------------------------------------------------------------------- #
class TestRNG001:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "channels/noise_model.py": (
                    "import numpy as np\n"
                    "def draw():\n"
                    "    return np.random.default_rng().random()\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["RNG001"])
        assert rule_ids(findings) == ["RNG001"]
        assert "default_rng" in findings[0].message

    def test_from_import_default_rng_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "pts/adaptive.py": (
                    "from numpy.random import default_rng\n"
                    "def draw(seed):\n"
                    "    return default_rng(seed)\n"
                )
            },
        )
        assert rule_ids(run_lint(tmp_path, ["RNG001"])) == ["RNG001"]

    def test_stdlib_random_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "sweep/runner.py": (
                    "import random\n"
                    "def jitter():\n"
                    "    return random.random()\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["RNG001"])
        assert rule_ids(findings) == ["RNG001"]
        assert "process-global" in findings[0].message

    def test_generator_annotation_not_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "pts/base.py": (
                    "import numpy as np\n"
                    "def sample(rng: np.random.Generator) -> np.ndarray:\n"
                    "    return rng.random(10)\n"
                )
            },
        )
        assert run_lint(tmp_path, ["RNG001"]) == []

    def test_rng_machinery_module_exempt(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "rng.py": (
                    "import numpy as np\n"
                    "def make_rng(seed):\n"
                    "    return np.random.Generator(np.random.Philox(seed))\n"
                )
            },
        )
        assert run_lint(tmp_path, ["RNG001"]) == []

    def test_repro_rng_helpers_pass(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "circuits/library.py": (
                    "from repro.rng import library_rng\n"
                    "def build(seed):\n"
                    "    return library_rng(seed)\n"
                )
            },
        )
        assert run_lint(tmp_path, ["RNG001"]) == []

    def test_submodule_import_resolves(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "analysis/bootstrap.py": (
                    "import numpy.random\n"
                    "from numpy import random as npr\n"
                    "def draw(n):\n"
                    "    return numpy.random.normal(size=n), npr.uniform()\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["RNG001"])
        assert rule_ids(findings) == ["RNG001", "RNG001"]
        assert {f.message.split("'")[1] for f in findings} == {
            "random.normal",
            "random.uniform",
        }


# --------------------------------------------------------------------- #
# DET001: nondeterminism in replay paths
# --------------------------------------------------------------------- #
class TestDET001:
    def test_wall_clock_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/batched.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["DET001"])
        assert rule_ids(findings) == ["DET001"]
        assert "time.time" in findings[0].message

    def test_perf_counter_allowed(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/batched.py": (
                    "import time\n"
                    "def measure():\n"
                    "    return time.perf_counter()\n"
                )
            },
        )
        assert run_lint(tmp_path, ["DET001"]) == []

    def test_os_urandom_and_uuid_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "trajectory/events.py": (
                    "import os\n"
                    "import uuid\n"
                    "def tag():\n"
                    "    return os.urandom(8), uuid.uuid4()\n"
                )
            },
        )
        assert rule_ids(run_lint(tmp_path, ["DET001"])) == ["DET001", "DET001"]

    def test_set_iteration_flagged_sorted_ok(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "backends/pauli_frame.py": (
                    "def order(qubits):\n"
                    "    out = []\n"
                    "    for q in {str(q) for q in qubits}:\n"
                    "        out.append(q)\n"
                    "    for q in sorted(set(qubits)):\n"
                    "        out.append(q)\n"
                    "    return out\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["DET001"])
        assert [f.line for f in findings] == [3]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_non_replay_module_ignored(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "sweep/report.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
        )
        assert run_lint(tmp_path, ["DET001"]) == []

    def test_from_import_resolves(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "backends/mps.py": (
                    "from datetime import datetime\n"
                    "from time import time as wall\n"
                    "def stamp():\n"
                    "    return datetime.now(), wall()\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["DET001"])
        assert sorted(f.message.split("'")[1] for f in findings) == [
            "datetime.datetime.now",
            "time.time",
        ]

    def test_local_name_collision_not_flagged(self, tmp_path):
        # A parameter that happens to be called `time` is not the module.
        make_tree(
            tmp_path,
            {
                "execution/batched.py": (
                    "def stamp(time, clock):\n"
                    "    return time.time(), clock.time()\n"
                )
            },
        )
        assert run_lint(tmp_path, ["DET001"]) == []


# --------------------------------------------------------------------- #
# ERR001: failures must reach the recovery ladder
# --------------------------------------------------------------------- #
class TestERR001:
    def test_bare_except_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/streaming.py": (
                    "def pump(fn):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except:\n"
                    "        return None\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["ERR001"])
        assert rule_ids(findings) == ["ERR001"]
        assert findings[0].line == 4
        assert "bare" in findings[0].message

    def test_broad_except_without_reraise_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/driver.py": (
                    "def pump(fn):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except Exception as exc:\n"
                    "        print(exc)\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["ERR001"])
        assert rule_ids(findings) == ["ERR001"]
        assert "Exception" in findings[0].message

    def test_broad_except_that_translates_passes(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/driver.py": (
                    "from repro.errors import ExecutionError\n"
                    "def pump(fn, unit):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except Exception as exc:\n"
                    "        raise ExecutionError(f'unit {unit} died') from exc\n"
                )
            },
        )
        assert run_lint(tmp_path, ["ERR001"]) == []

    def test_swallowed_repro_error_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "from repro.errors import BackendError\n"
                    "def pump(units):\n"
                    "    for unit in units:\n"
                    "        try:\n"
                    "            unit()\n"
                    "        except BackendError:\n"
                    "            continue\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["ERR001"])
        assert rule_ids(findings) == ["ERR001"]
        assert "BackendError" in findings[0].message

    def test_swallowed_in_tuple_and_attribute_form_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "faults/retry.py": (
                    "import repro.errors as errors\n"
                    "def pump(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except (ValueError, errors.SamplingError):\n"
                    "        pass\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["ERR001"])
        assert rule_ids(findings) == ["ERR001"]
        assert "SamplingError" in findings[0].message

    def test_handled_repro_error_passes(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "from repro.errors import CapacityError\n"
                    "def pump(fn, events):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except CapacityError as exc:\n"
                    "        events.append(exc)\n"
                    "        return None\n"
                )
            },
        )
        assert run_lint(tmp_path, ["ERR001"]) == []

    def test_non_literal_retryable_tuple_invisible(self, tmp_path):
        # `except policy.retryable:` routes classification through
        # RetryPolicy — the sanctioned structured path; the rule must
        # not guess at non-literal tuples.
        make_tree(
            tmp_path,
            {
                "execution/streaming.py": (
                    "def pump(fn, policy):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except policy.retryable:\n"
                    "        return None\n"
                )
            },
        )
        assert run_lint(tmp_path, ["ERR001"]) == []

    def test_non_execution_module_ignored(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "analysis/estimators.py": (
                    "def safe(fn):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except:\n"
                    "        return None\n"
                )
            },
        )
        assert run_lint(tmp_path, ["ERR001"]) == []

    def test_stdlib_narrow_except_passes(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/batched.py": (
                    "def lookup(d, k):\n"
                    "    try:\n"
                    "        return d[k]\n"
                    "    except KeyError:\n"
                    "        return None\n"
                )
            },
        )
        assert run_lint(tmp_path, ["ERR001"]) == []


# --------------------------------------------------------------------- #
# STRAT001: the cross-module executor contract
# --------------------------------------------------------------------- #
COMPLIANT_DISPATCH = """\
STRATEGIES = {"foo": ("repro.execution.foo", "FooExecutor")}

def run_ptsbe_stream(circuit, sampler, strategy="auto"):
    executor = executor_class(strategy)()
    stream = executor.execute_stream(circuit, [], seed=0, retain=True)
    stream.routing = "explicit"
    return stream
"""

COMPLIANT_EXECUTOR = """\
class _FooEngine:
    name = "foo"

class FooExecutor(StreamingExecutor):
    def _engine(self, circuit):
        return _FooEngine()
"""


class TestSTRAT001:
    def fixture(self, tmp_path, dispatch=COMPLIANT_DISPATCH, executor=COMPLIANT_EXECUTOR):
        return make_tree(
            tmp_path,
            {
                "execution/batched.py": dispatch,
                "execution/foo.py": executor,
            },
        )

    def test_compliant_tree_clean(self, tmp_path):
        self.fixture(tmp_path)
        assert run_lint(tmp_path, ["STRAT001"]) == []

    def test_fan_out_wrapper_engine_keyword(self, tmp_path):
        # An executor that builds its own StreamedResult has left the
        # shared loop, whatever engine= keyword it stamps on it.
        wrapper = (
            "class FooExecutor:\n"
            "    def execute_stream(self, circuit, specs, seed=None, retain=True):\n"
            '        return StreamedResult(engine="foo")\n'
        )
        self.fixture(tmp_path, executor=wrapper)
        (finding,) = run_lint(tmp_path, ["STRAT001"])
        assert "outside execution/driver.py" in finding.message
        assert (finding.path, finding.line) == ("execution/foo.py", 3)

    def test_streamed_result_allowed_in_the_driver_only(self, tmp_path):
        self.fixture(tmp_path)
        built = "def drive():\n    return StreamedResult()\n"
        make_tree(tmp_path, {"execution/driver.py": built, "sweep/runner.py": built})
        assert run_lint(tmp_path, ["STRAT001"]) == []

    def test_dispatch_must_attach_routing(self, tmp_path):
        broken = COMPLIANT_DISPATCH.replace('    stream.routing = "explicit"\n', "")
        self.fixture(tmp_path, dispatch=broken)
        (finding,) = run_lint(tmp_path, ["STRAT001"])
        assert "routing" in finding.message
        assert finding.path == "execution/batched.py"

    def test_non_repro_tree_silent(self, tmp_path):
        make_tree(tmp_path, {"pkg/module.py": "x = 1\n"})
        assert run_lint(tmp_path, ["STRAT001"]) == []


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
#: A DET001 violation in a replay-path module (the framework fixtures'
#: seeded finding).
WALL_CLOCK = "import time\ndef f():\n    return time.time()\n"


class TestSuppressions:
    def test_inline_disable_silences_one_rule_one_line(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "import time\n"
                    "def f():\n"
                    "    x = time.time()  # replint: disable=DET001 -- justified\n"
                    "    y = time.time()\n"
                    "    return x, y\n"
                )
            },
        )
        findings = run_lint(tmp_path, ["DET001"])
        assert [f.line for f in findings] == [4]

    def test_disable_all_wildcard(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "import random\n"
                    "import time\n"
                    "def f():\n"
                    "    return random.random(), time.time()  # replint: disable=all\n"
                )
            },
        )
        assert run_lint(tmp_path) == []

    def test_disable_file(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "# replint: disable-file=DET001 -- timing only, never seeds\n"
                    + WALL_CLOCK
                )
            },
        )
        assert run_lint(tmp_path, ["DET001"]) == []

    def test_disable_list_of_rules(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "import random\n"
                    "import time\n"
                    "def f():\n"
                    "    return random.random(), time.time()  # replint: disable=RNG001,DET001\n"
                )
            },
        )
        assert run_lint(tmp_path) == []

    def test_unrelated_rule_still_fires(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "import time\n"
                    "def f():\n"
                    "    return time.time()  # replint: disable=RNG001\n"
                )
            },
        )
        assert rule_ids(run_lint(tmp_path)) == ["DET001"]

    def test_unregistered_rule_id_silences_nothing(self, tmp_path):
        # The matcher accepts any id; one naming no live rule is inert.
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "import time\n"
                    "def f():\n"
                    "    return time.time()  # replint: disable=GONE01\n"
                )
            },
        )
        assert rule_ids(run_lint(tmp_path)) == ["DET001"]


# --------------------------------------------------------------------- #
# the per-file context every rule reads
# --------------------------------------------------------------------- #
def file_context(source: str, relpath: str = "execution/batched.py") -> FileContext:
    return FileContext(Path("."), relpath, source=source)


def call_at(ctx: FileContext, line: int) -> ast.Call:
    """The outermost call expression starting on ``line``."""
    return next(
        node for node in ctx.walk() if isinstance(node, ast.Call) and node.lineno == line
    )


class TestFileContext:
    def test_import_alias_resolves_to_the_canonical_name(self):
        ctx = file_context("import numpy as np\nnp.linalg.svd(a)\n")
        assert ctx.import_map == {"np": "numpy"}
        assert ctx.resolve_call(call_at(ctx, 2)) == "numpy.linalg.svd"

    def test_from_import_resolves_names_and_submodules(self):
        ctx = file_context(
            "from numpy.random import default_rng\n"
            "from numpy import linalg as la\n"
            "default_rng(3)\n"
            "la.svd(a)\n"
        )
        assert ctx.resolve_call(call_at(ctx, 3)) == "numpy.random.default_rng"
        assert ctx.resolve_call(call_at(ctx, 4)) == "numpy.linalg.svd"

    def test_dotted_import_binds_the_top_package(self):
        ctx = file_context(
            "import os.path\n"
            "import numpy.linalg as nla\n"
            "os.path.join(a)\n"
            "nla.qr(a)\n"
        )
        assert ctx.import_map == {"os": "os", "nla": "numpy.linalg"}
        assert ctx.resolve_call(call_at(ctx, 3)) == "os.path.join"
        assert ctx.resolve_call(call_at(ctx, 4)) == "numpy.linalg.qr"

    def test_locals_and_non_dotted_targets_stay_unresolved(self):
        ctx = file_context(
            "import numpy as np\n"
            "rng.random(4)\n"
            "fns[0](a)\n"
            "np.asarray(a).sum()\n"
        )
        assert ctx.resolve_call(call_at(ctx, 2)) is None
        assert ctx.resolve_call(call_at(ctx, 3)) is None
        # The outer call's target hangs off a call result, not a name.
        assert ctx.resolve_call(call_at(ctx, 4)) is None

    def test_relative_and_star_imports_are_not_mapped(self):
        ctx = file_context(
            "from . import time\n"
            "from .rng import make_rng\n"
            "from numpy import *\n"
            "time.time()\n"
        )
        assert ctx.import_map == {}
        assert ctx.resolve_call(call_at(ctx, 4)) is None

    def test_scope_of_walks_nested_defs_and_classes(self):
        ctx = file_context(
            "a()\n"
            "class Engine:\n"
            "    def run(self):\n"
            "        def step():\n"
            "            return b()\n"
            "        return c()\n"
        )
        assert ctx.scope_of(call_at(ctx, 1)) == "<module>"
        assert ctx.scope_of(call_at(ctx, 5)) == "Engine.run.step"
        assert ctx.scope_of(call_at(ctx, 6)) == "Engine.run"

    def test_suppression_spacing_lists_and_justification(self):
        ctx = file_context(
            "x = 1  #replint:disable = DET001 , RNG001 -- timing only\n"
            "y = 2  # replint: disable=ERR001\n"
        )
        assert ctx.line_suppressions == {1: {"DET001", "RNG001"}, 2: {"ERR001"}}
        assert ctx.file_suppressions == set()

    def test_suppression_inside_a_string_is_not_a_comment(self):
        ctx = file_context('x = "# replint: disable-file=all"\n')
        assert ctx.file_suppressions == set()
        assert ctx.line_suppressions == {}
        assert not ctx.is_suppressed("DET001", 1)

    def test_line_suppression_covers_its_own_line_only(self):
        ctx = file_context("a = 1  # replint: disable=DET001\nb = 2\n")
        assert ctx.is_suppressed("DET001", 1)
        assert not ctx.is_suppressed("DET001", 2)
        assert not ctx.is_suppressed("RNG001", 1)

    def test_disable_file_all_covers_every_rule_and_line(self):
        ctx = file_context("# replint: disable-file=all\na = 1\nb = 2\n")
        assert ctx.file_suppressions == {"all"}
        assert all(
            ctx.is_suppressed(rule_id, line) for rule_id in RULE_IDS for line in (1, 2, 3)
        )


# --------------------------------------------------------------------- #
# baseline round-trip
# --------------------------------------------------------------------- #
class TestBaseline:
    def seeded_tree(self, tmp_path):
        return make_tree(tmp_path, {"execution/vectorized.py": WALL_CLOCK})

    def test_round_trip(self, tmp_path):
        self.seeded_tree(tmp_path)
        findings = run_lint(tmp_path)
        assert findings
        baseline_file = tmp_path / "baseline.json"
        write_baseline(findings, baseline_file, notes="test")
        entries = load_baseline(baseline_file)
        assert len(entries) == len(findings)
        new, baselined, stale = partition(findings, entries)
        assert new == [] and stale == []
        assert len(baselined) == len(findings)

    def test_line_churn_does_not_invalidate(self, tmp_path):
        self.seeded_tree(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(run_lint(tmp_path), baseline_file)
        # Insert unrelated lines above the finding: key is line-agnostic.
        target = tmp_path / "execution/vectorized.py"
        target.write_text("import time\n\n\n" + target.read_text().split("\n", 1)[1])
        new, baselined, stale = partition(
            run_lint(tmp_path), load_baseline(baseline_file)
        )
        assert new == [] and stale == []

    def test_count_aware_matching(self, tmp_path):
        self.seeded_tree(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(run_lint(tmp_path), baseline_file)
        # Duplicate the offending line: one finding is absorbed, the
        # second is new — grandfathered debt must not hide growth.
        target = tmp_path / "execution/vectorized.py"
        target.write_text(
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
            "def g():\n"
            "    return time.time()\n"
        )
        new, baselined, stale = partition(
            run_lint(tmp_path), load_baseline(baseline_file)
        )
        # Different scope -> different key: the g() copy is new.
        assert len(new) == 1 and new[0].scope == "g"
        assert len(baselined) == 1 and stale == []

    def test_stale_entries_reported(self, tmp_path):
        self.seeded_tree(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(run_lint(tmp_path), baseline_file)
        (tmp_path / "execution/vectorized.py").write_text(
            "import time\ndef f():\n    return time.perf_counter()\n"
        )
        new, baselined, stale = partition(
            run_lint(tmp_path), load_baseline(baseline_file)
        )
        assert new == [] and baselined == []
        assert len(stale) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintError):
            load_baseline(bad)
        bad.write_text('{"no_entries": []}')
        with pytest.raises(LintError):
            load_baseline(bad)

    def test_justifications_by_path_prefix(self, tmp_path):
        self.seeded_tree(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(
            run_lint(tmp_path),
            baseline_file,
            justifications={"execution/": "timing only, never seeds"},
        )
        entries = load_baseline(baseline_file)
        assert entries[0].justification == "timing only, never seeds"


# --------------------------------------------------------------------- #
# CLI behavior and exit codes
# --------------------------------------------------------------------- #
class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"data/io.py": "x = 1\n"})
        assert lint_main(["--root", str(tmp_path), "--no-baseline"]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        make_tree(tmp_path, {"execution/vectorized.py": WALL_CLOCK})
        assert lint_main(["--root", str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "1 new" in out

    def test_baselined_findings_exit_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"execution/vectorized.py": WALL_CLOCK})
        baseline = tmp_path / "bl.json"
        assert (
            lint_main(["--root", str(tmp_path), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        assert lint_main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_strict_fails_on_stale_entries(self, tmp_path, capsys):
        make_tree(tmp_path, {"execution/vectorized.py": WALL_CLOCK})
        baseline = tmp_path / "bl.json"
        lint_main(["--root", str(tmp_path), "--baseline", str(baseline), "--write-baseline"])
        (tmp_path / "execution/vectorized.py").write_text(
            "import time\ndef f():\n    return time.perf_counter()\n"
        )
        # Non-strict tolerates the stale entry; strict demands cleanup.
        assert lint_main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0
        assert (
            lint_main(["--root", str(tmp_path), "--baseline", str(baseline), "--strict"])
            == 1
        )

    def test_json_report_shape(self, tmp_path, capsys):
        make_tree(tmp_path, {"execution/vectorized.py": WALL_CLOCK})
        code = lint_main(["--root", str(tmp_path), "--no-baseline", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["summary"]["new"] == 1
        assert report["new"][0]["rule"] == "DET001"
        assert {r["id"] for r in report["rules"]} == set(RULE_IDS)

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        make_tree(tmp_path, {"data/io.py": "x = 1\n"})
        assert lint_main(["--root", str(tmp_path), "--rules", "NOPE99"]) == 2

    def test_rules_filter(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "execution/vectorized.py": (
                    "import random\n"
                    "import time\n"
                    "def f():\n"
                    "    return random.random(), time.time()\n"
                )
            },
        )
        assert lint_main(
            ["--root", str(tmp_path), "--no-baseline", "--rules", "DET001"]
        ) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "RNG001" not in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_module_invocation(self, tmp_path):
        # `python -m repro.lint` end to end, as CI invokes it.
        make_tree(tmp_path, {"data/io.py": "x = 1\n"})
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--root", str(tmp_path), "--no-baseline"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------- #
# rule catalogue integrity + the live-codebase meta-test
# --------------------------------------------------------------------- #
class TestCatalogue:
    def test_every_bundled_rule_registered(self):
        assert sorted(rule.id for rule in all_rules()) == list(RULE_IDS)
        for rule in all_rules():
            assert rule.title and rule.rationale

    def test_parse_error_reported_not_crash(self, tmp_path):
        make_tree(tmp_path, {"execution/broken.py": "def f(:\n"})
        findings = run_lint(tmp_path)
        assert [f.rule for f in findings] == ["PARSE"]


class TestLiveCodebase:
    """The committed tree must be lint-clean against the committed baseline."""

    def test_live_tree_has_no_new_findings(self):
        findings = run_lint(default_root())
        entries = load_baseline(default_baseline_path())
        new, _, stale = partition(findings, entries)
        assert new == [], "un-baselined lint findings:\n" + "\n".join(
            f.render() for f in new
        )
        assert stale == [], "stale baseline entries (debt paid — remove them):\n" + "\n".join(
            f"{e.rule} {e.path} {e.text!r}" for e in stale
        )

    def test_committed_baseline_is_fully_justified(self):
        entries = load_baseline(default_baseline_path())
        for entry in entries:
            assert entry.justification, (
                f"baseline entry without justification: {entry.rule} "
                f"{entry.path} {entry.text!r}"
            )

    def test_strategy_contract_holds_on_live_tree(self):
        # STRAT001 alone, no baseline: the live executors must satisfy
        # the contract outright (never via grandfathering).
        assert run_lint(default_root(), ["STRAT001"]) == []

    def test_live_rng_discipline_outside_baseline(self):
        # RNG001 and DET001 must be outright clean on the live tree.
        assert run_lint(default_root(), ["RNG001"]) == []
        assert run_lint(default_root(), ["DET001"]) == []

    def test_suppressions_name_live_rules(self):
        # The suppression matcher accepts any id, so a comment naming a
        # deleted rule would silently outlive it.
        known = {rule.id for rule in all_rules()} | {"all"}
        project = Project(default_root())
        dead = []
        for relpath in project.files():
            ctx = project.context_for(relpath)
            named = ctx.file_suppressions.union(*ctx.line_suppressions.values())
            dead += [f"{relpath}: {rule_id}" for rule_id in sorted(named - known)]
        assert dead == [], "suppressions of unregistered rules:\n" + "\n".join(dead)


# --------------------------------------------------------------------- #
# optional: mypy --strict over the typed slice (mirrors the CI step)
# --------------------------------------------------------------------- #
@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_typed_slice():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [
            "mypy",
            "--strict",
            "--no-error-summary",
            str(src / "repro" / "lint"),
            str(src / "repro" / "rng.py"),
        ],
        capture_output=True,
        text=True,
        cwd=str(src),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
