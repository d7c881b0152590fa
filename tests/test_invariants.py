"""The replay contract's structural invariants, checked over ``src/repro``.

One root seed must replay a bitwise-identical shot table.  Behavioural
tests probe that on the inputs they run; the four rules here hold it
*structurally*, over every line of the package:

* **RNG001** — every random draw flows through ``repro.rng``;
* **DET001** — no wall clock, OS entropy or hash-ordered set iteration in
  a seeded replay path;
* **ERR001** — no swallowed or over-broad ``except`` on an execution path;
* **STRAT001** — the dispatch records why each engine ran, and only the
  driver builds a ``StreamedResult``.

A rule is a function over a root-relative path and its parsed module
(STRAT001: over the dict of every module) that yields ``(path, line,
message)``.  Each rule has seeded-violation fixtures it must flag and
sanctioned idioms it must pass; the live tree must hold every rule
outright, apart from the entries of :data:`EXEMPT`.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.errors import ReproError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

Finding = Tuple[str, int, str]

#: (rule, root-relative path, stripped source line) -> why that finding is
#: correct by contract.  Empty: every invariant holds outright.
EXEMPT: Dict[Tuple[str, str, str], str] = {}


def in_scope(path: str, entries: Tuple[str, ...]) -> bool:
    """Whether ``path`` is one of ``entries`` or under one ending in ``/``."""
    return any(path == e or (e.endswith("/") and path.startswith(e)) for e in entries)


# --------------------------------------------------------------------- #
# import-alias resolution (RNG001, DET001)
# --------------------------------------------------------------------- #
def import_map(tree: ast.Module) -> Dict[str, str]:
    """Imported name -> canonical dotted prefix, e.g. ``{"np": "numpy"}``."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                names[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            # Relative imports never reach numpy or the stdlib.
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def dotted_name(node: ast.AST) -> Optional[str]:
    """The literal dotted chain of a Name/Attribute node, if pure."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of an expression, through import aliases.

    ``None`` for anything not rooted at an imported name: locals stay
    unresolved on purpose (``rng.random()`` on a Generator parameter must
    not look like the stdlib).
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    mapped = imports.get(head)
    if mapped is None:
        return None
    return f"{mapped}.{rest}" if rest else mapped


# --------------------------------------------------------------------- #
# RNG001: every random draw flows through repro.rng
# --------------------------------------------------------------------- #
#: The stream machinery itself, the one module that constructs generators.
RNG_MACHINERY = ("rng.py",)


def rng001(path: str, tree: ast.Module) -> Iterator[Finding]:
    """Calls into ``numpy.random`` or stdlib ``random`` outside ``rng.py``.

    Annotations (``np.random.Generator``) are not calls, and method calls
    on generator objects (``rng.random(n)``) are the sanctioned pattern.
    """
    if in_scope(path, RNG_MACHINERY):
        return
    imports = import_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = resolve(node.func, imports)
        if resolved is None:
            continue
        if resolved.startswith("numpy.random."):
            yield path, node.lineno, (
                f"'{resolved[len('numpy.'):]}' call bypasses the repro.rng spawn "
                f"machinery; derive streams via repro.rng "
                f"(make_rng / trajectory_rng / library_rng)"
            )
        elif resolved == "random" or resolved.startswith("random."):
            yield path, node.lineno, (
                f"stdlib '{resolved}' call uses process-global RNG state; "
                f"derive a generator via repro.rng instead"
            )


# --------------------------------------------------------------------- #
# DET001: replay paths are pure functions of (circuit, specs, seed)
# --------------------------------------------------------------------- #
REPLAY_PATH_MODULES = ("execution/", "backends/", "pts/", "trajectory/", "channels/", "rng.py")

#: Calls whose results differ run to run.  ``time.perf_counter`` and
#: ``process_time`` are absent on purpose: they feed timing, never shots.
FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic_ns",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


def _is_raw_set(node: ast.expr, imports: Dict[str, str]) -> bool:
    """A set literal / comprehension, or a call of the builtin ``set``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
        and "set" not in imports
    )


def det001(path: str, tree: ast.Module) -> Iterator[Finding]:
    """Wall clocks, OS entropy and set iteration in a replay-path module.

    Iterating a set, in a ``for`` loop or a comprehension, follows
    ``PYTHONHASHSEED`` for str keys, so anything it feeds varies across
    processes.
    """
    if not in_scope(path, REPLAY_PATH_MODULES):
        return
    imports = import_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            resolved = resolve(node.func, imports)
            if resolved in FORBIDDEN_CALLS:
                yield path, node.lineno, (
                    f"'{resolved}' is a per-run nondeterminism source; replay "
                    f"paths may only consume the threaded seed (timing metrics "
                    f"should use time.perf_counter)"
                )
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            if _is_raw_set(node.iter, imports):
                yield path, node.iter.lineno, (
                    "iterating a set directly: order depends on PYTHONHASHSEED "
                    "across processes; iterate sorted(...) in replay paths"
                )


# --------------------------------------------------------------------- #
# ERR001: failures reach the recovery ladder
# --------------------------------------------------------------------- #
ERROR_PATH_PREFIXES = ("execution/", "faults/")

# A ReproError subclass is registered once its module is imported, so
# import the whole tree before walking the hierarchy.
for _path in sorted(SRC.rglob("*.py")):
    _module = ".".join(("repro",) + _path.relative_to(SRC).with_suffix("").parts)
    if not _module.endswith("__main__"):
        importlib.import_module(_module.removesuffix(".__init__"))


def _subclass_names(cls: type) -> Iterator[str]:
    yield cls.__name__
    for sub in cls.__subclasses__():
        yield from _subclass_names(sub)


#: Every typed error of the package, matched on a handler's trailing name
#: (``BackendError`` and ``errors.BackendError`` alike).
REPRO_ERROR_NAMES = frozenset(_subclass_names(ReproError))

BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _handler_problem(handler: ast.ExceptHandler) -> Optional[str]:
    if handler.type is None:
        return (
            "bare 'except:' absorbs every failure (including KeyboardInterrupt "
            "and injected faults); catch the typed ReproError subclass the "
            "unit can actually recover from"
        )
    # Only literal classes are judged: `except policy.retryable:` routes
    # classification through RetryPolicy, the sanctioned structured path.
    elements = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = {d.rsplit(".", 1)[-1] for d in map(dotted_name, elements) if d is not None}
    broad = sorted(names & BROAD_NAMES)
    if broad and not any(isinstance(node, ast.Raise) for node in ast.walk(handler)):
        return (
            f"'except {broad[0]}' without a re-raise hides failures from the "
            f"retry/halving ladder; catch the typed error or translate into "
            f"ExecutionError with unit context"
        )
    swallowed = sorted(names & REPRO_ERROR_NAMES)
    body_is_empty = all(
        isinstance(stmt, (ast.Pass, ast.Continue))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in handler.body
    )
    if swallowed and body_is_empty:
        return (
            f"{swallowed[0]} handler discards the failure without recording "
            f"or re-raising it; append a RecoveryEvent, translate, or let the "
            f"retry policy classify it"
        )
    return None


def err001(path: str, tree: ast.Module) -> Iterator[Finding]:
    """Broad catches without a re-raise, and swallowed typed errors.

    Retry and batch-halving trigger only when a failure surfaces as a
    typed ReproError; a broad or silent ``except`` in an ``execution/`` or
    ``faults/`` module hides it from the ladder and from ``RecoveryEvent``.
    """
    if not in_scope(path, ERROR_PATH_PREFIXES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            message = _handler_problem(node)
            if message is not None:
                yield path, node.lineno, message


# --------------------------------------------------------------------- #
# STRAT001: every strategy goes through the shared dispatch and driver
# --------------------------------------------------------------------- #
DISPATCH_MODULE = "execution/batched.py"
DRIVER_MODULE = "execution/driver.py"


def strat001(trees: Dict[str, ast.Module]) -> Iterator[Finding]:
    """What a behavioural test over today's strategy table cannot see.

    The dispatch must attach ``<stream>.routing`` so a result says why its
    engine ran, and no ``execution/`` module but the driver may build a
    ``StreamedResult``: one that does has left the shared retry, ordering
    and cleanup.  Silent on a tree without the dispatch module.
    """
    dispatch = trees.get(DISPATCH_MODULE)
    if dispatch is None:
        return
    if not any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Attribute) and t.attr == "routing" for t in node.targets)
        for node in ast.walk(dispatch)
    ):
        yield DISPATCH_MODULE, 1, (
            "dispatch never attaches the routing decision (no "
            "'<stream>.routing = ...' assignment); run_ptsbe_stream must "
            "record why each engine ran"
        )
    for path, tree in sorted(trees.items()):
        if not path.startswith("execution/") or path == DRIVER_MODULE:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "StreamedResult"
            ):
                yield path, node.lineno, (
                    f"StreamedResult constructed outside {DRIVER_MODULE}: go "
                    f"through StreamingExecutor.execute_stream so the run gets "
                    f"the shared retry, ordering and cleanup"
                )


FILE_RULES = {"RNG001": rng001, "DET001": det001, "ERR001": err001}


# --------------------------------------------------------------------- #
# the live tree
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def live_sources() -> Dict[str, str]:
    return {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }


@pytest.fixture(scope="module")
def live_trees(live_sources) -> Dict[str, ast.Module]:
    return {path: ast.parse(source, filename=path) for path, source in live_sources.items()}


def test_live_tree_holds_every_invariant(live_sources, live_trees):
    findings = [
        (rule_id, finding)
        for rule_id, rule in FILE_RULES.items()
        for path, tree in live_trees.items()
        for finding in rule(path, tree)
    ]
    findings += [("STRAT001", finding) for finding in strat001(live_trees)]
    found = {
        (rule_id, path, live_sources[path].splitlines()[line - 1].strip()): (
            f"{path}:{line}: {rule_id} {message}"
        )
        for rule_id, (path, line, message) in findings
    }
    unexempt = [found[key] for key in sorted(found.keys() - EXEMPT.keys())]
    stale = sorted(EXEMPT.keys() - found.keys())
    assert not unexempt and not stale and all(EXEMPT.values()), (unexempt, stale)


def test_rule_scopes_name_live_modules(live_trees):
    # A renamed module must not silently leave the scope of its rule.
    scopes = REPLAY_PATH_MODULES + ERROR_PATH_PREFIXES + RNG_MACHINERY
    for entry in scopes + (DISPATCH_MODULE, DRIVER_MODULE):
        assert any(in_scope(path, (entry,)) for path in live_trees), entry


@pytest.mark.skipif(importlib.util.find_spec("mypy") is None, reason="mypy not installed")
def test_mypy_strict_typed_slice():
    # The slice CI checks: `[tool.mypy] files` in pyproject.toml.
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"], capture_output=True, text=True, cwd=str(ROOT)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# --------------------------------------------------------------------- #
# seeded violations and sanctioned idioms
# --------------------------------------------------------------------- #
def check(findings, expected):
    """``expected``: each finding's (path, line, message fragment), sorted."""
    found = sorted(findings)
    assert [(path, line) for path, line, _ in found] == [(p, l) for p, l, _ in expected], found
    for (_, _, message), (_, _, fragment) in zip(found, expected):
        assert fragment in message, message


def check_file_rule(rule, path, source, expected):
    """``expected``: each finding's (line, message fragment), sorted."""
    check(rule(path, ast.parse(source)), [(path, line, frag) for line, frag in expected])


@pytest.mark.parametrize(
    "source, resolved",
    [
        pytest.param("import numpy as np\nnp.linalg.svd(a)\n", "numpy.linalg.svd", id="alias"),
        pytest.param(
            "from numpy.random import default_rng\ndefault_rng(3)\n",
            "numpy.random.default_rng",
            id="from-import-name",
        ),
        pytest.param(
            "from numpy import linalg as la\nla.svd(a)\n", "numpy.linalg.svd", id="from-import-module"
        ),
        pytest.param("import os.path\nos.path.join(a)\n", "os.path.join", id="dotted-import"),
        pytest.param(
            "import numpy.linalg as nla\nnla.qr(a)\n", "numpy.linalg.qr", id="dotted-import-alias"
        ),
        pytest.param("import numpy as np\nrng.random(4)\n", None, id="local"),
        pytest.param("fns[0](a)\n", None, id="subscript"),
        pytest.param("import numpy as np\nnp.asarray(a).sum()\n", None, id="call-result"),
        pytest.param("from . import time\ntime.time()\n", None, id="relative"),
        pytest.param("from .rng import make_rng\nmake_rng(1)\n", None, id="relative-module"),
        pytest.param("from numpy import *\nrandom.random()\n", None, id="star"),
    ],
)
def test_resolve(source, resolved):
    tree = ast.parse(source)
    assert resolve(tree.body[-1].value.func, import_map(tree)) == resolved


def test_import_map_binds_the_top_package_or_the_alias():
    tree = ast.parse("import os.path\nimport numpy.linalg as nla\nfrom . import time\n")
    assert import_map(tree) == {"os": "os", "nla": "numpy.linalg"}


@pytest.mark.parametrize(
    "path, source, expected",
    [
        pytest.param(
            "channels/noise_model.py",
            "import numpy as np\ndef draw():\n    return np.random.default_rng().random()\n",
            [(3, "'random.default_rng'")],
            id="alias",
        ),
        pytest.param(
            "pts/tailored.py",
            "from numpy.random import default_rng\ndef draw(seed):\n    return default_rng(seed)\n",
            [(3, "'random.default_rng'")],
            id="from-import",
        ),
        pytest.param(
            "sweep/runner.py",
            "import random\ndef jitter():\n    return random.random()\n",
            [(3, "process-global")],
            id="stdlib-random",
        ),
        pytest.param(
            "analysis/bootstrap.py",
            "import numpy.random\n"
            "from numpy import random as npr\n"
            "def draw(n):\n"
            "    return numpy.random.normal(size=n), npr.uniform()\n",
            [(4, "'random.normal'"), (4, "'random.uniform'")],
            id="submodule-import",
        ),
        pytest.param(
            "pts/base.py",
            "import numpy as np\nnp.random.seed(0)\n",
            [(2, "'random.seed'")],
            id="global-seed",
        ),
        pytest.param(
            "sweep/runner.py",
            "import random as rnd\ndef pick(xs):\n    return rnd.choice(xs)\n",
            [(3, "'random.choice'")],
            id="stdlib-random-alias",
        ),
        pytest.param(
            "sweep/runner.py",
            "from random import shuffle\ndef mix(xs):\n    shuffle(xs)\n",
            [(3, "'random.shuffle'")],
            id="stdlib-from-import",
        ),
        pytest.param(
            # The method call on the fresh generator is not a second finding.
            "pts/base.py",
            "import numpy as np\ndef draw(seed):\n    return np.random.default_rng(seed).random()\n",
            [(3, "'random.default_rng'")],
            id="method-on-unseeded-generator",
        ),
        pytest.param(
            "pts/base.py",
            "def draw(random):\n    return random.random()\n",
            [],
            id="local-random-parameter-passes",
        ),
        pytest.param(
            "pts/base.py",
            "import numpy as np\n"
            "def sample(rng: np.random.Generator) -> np.ndarray:\n"
            "    return rng.random(10)\n",
            [],
            id="generator-annotation-passes",
        ),
        pytest.param(
            "rng.py",
            "import numpy as np\n"
            "def make_rng(seed):\n"
            "    return np.random.Generator(np.random.Philox(seed))\n",
            [],
            id="rng-machinery-exempt",
        ),
        pytest.param(
            "circuits/library.py",
            "from repro.rng import library_rng\ndef build(seed):\n    return library_rng(seed)\n",
            [],
            id="repro-rng-helper-passes",
        ),
    ],
)
def test_rng001(path, source, expected):
    check_file_rule(rng001, path, source, expected)


@pytest.mark.parametrize(
    "path, source, expected",
    [
        pytest.param(
            "execution/batched.py",
            "import time\ndef stamp():\n    return time.time()\n",
            [(3, "'time.time'")],
            id="wall-clock",
        ),
        pytest.param(
            "trajectory/events.py",
            "import os\nimport uuid\ndef tag():\n    return os.urandom(8), uuid.uuid4()\n",
            [(4, "'os.urandom'"), (4, "'uuid.uuid4'")],
            id="os-entropy",
        ),
        pytest.param(
            "backends/mps.py",
            "from datetime import datetime\n"
            "from time import time as wall\n"
            "def stamp():\n"
            "    return datetime.now(), wall()\n",
            [(4, "'datetime.datetime.now'"), (4, "'time.time'")],
            id="from-import",
        ),
        pytest.param(
            "backends/pauli_frame.py",
            "def order(qubits):\n"
            "    out = []\n"
            "    for q in {str(q) for q in qubits}:\n"
            "        out.append(q)\n"
            "    for q in sorted(set(qubits)):\n"
            "        out.append(q)\n"
            "    return out\n",
            [(3, "PYTHONHASHSEED")],
            id="for-over-set",
        ),
        pytest.param(
            "pts/base.py",
            "def f(xs):\n    return [x for x in set(xs)]\n",
            [(2, "PYTHONHASHSEED")],
            id="list-comprehension",
        ),
        pytest.param(
            "pts/base.py",
            "def f(xs):\n    return {str(x) for x in {1, 2}}\n",
            [(2, "PYTHONHASHSEED")],
            id="set-comprehension",
        ),
        pytest.param(
            "pts/base.py",
            "def f():\n    return {k: 1 for k in {1, 2}}\n",
            [(2, "PYTHONHASHSEED")],
            id="dict-comprehension",
        ),
        pytest.param(
            "pts/base.py",
            "def f(xs):\n    return list(x for y in xs for x in set(y))\n",
            [(2, "PYTHONHASHSEED")],
            id="generator-expression",
        ),
        pytest.param(
            "channels/noise_model.py",
            "async def f(xs):\n    async for x in set(xs):\n        yield x\n",
            [(2, "PYTHONHASHSEED")],
            id="async-for-over-set",
        ),
        pytest.param(
            # rng.py is exempt from RNG001, not from DET001.
            "rng.py",
            "import time\ndef make_rng():\n    return time.time_ns()\n",
            [(3, "'time.time_ns'")],
            id="rng-machinery-in-replay-scope",
        ),
        pytest.param(
            "pts/base.py",
            "from ordered import OrderedSet as set\ndef f(xs):\n    return [x for x in set(xs)]\n",
            [],
            id="imported-set-name-passes",
        ),
        pytest.param(
            "pts/base.py",
            "def f(xs):\n    return [x for x in sorted(set(xs))]\n",
            [],
            id="sorted-comprehension-passes",
        ),
        pytest.param(
            "execution/batched.py",
            "import time\ndef measure():\n    return time.perf_counter()\n",
            [],
            id="perf-counter-passes",
        ),
        pytest.param(
            "sweep/report.py",
            "import time\ndef stamp():\n    return time.time()\n",
            [],
            id="non-replay-module-ignored",
        ),
        pytest.param(
            "execution/batched.py",
            "def stamp(time, clock):\n    return time.time(), clock.time()\n",
            [],
            id="local-name-collision-passes",
        ),
    ],
)
def test_det001(path, source, expected):
    check_file_rule(det001, path, source, expected)


@pytest.mark.parametrize(
    "call",
    [
        "time.time",
        "time.time_ns",
        "time.monotonic_ns",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    ],
)
def test_det001_flags_each_entropy_source(call):
    source = f"import {call.split('.')[0]}\ndef stamp():\n    return {call}()\n"
    check_file_rule(det001, "trajectory/events.py", source, [(3, f"'{call}'")])


def _handler(caught: str, body: str = "pass") -> str:
    """A module whose one handler (line 4) catches ``caught``."""
    return f"def pump(fn):\n    try:\n        fn()\n    except {caught}:\n        {body}\n"


@pytest.mark.parametrize(
    "path, source, expected",
    [
        pytest.param(
            "execution/streaming.py",
            "def pump(fn):\n    try:\n        return fn()\n    except:\n        return None\n",
            [(4, "bare")],
            id="bare-except",
        ),
        pytest.param(
            "execution/driver.py",
            "def pump(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        print(exc)\n",
            [(4, "'except Exception'")],
            id="broad-without-reraise",
        ),
        pytest.param(
            "execution/vectorized.py",
            _handler("BackendError", "continue"),
            [(4, "BackendError handler")],
            id="swallowed-continue",
        ),
        pytest.param(
            "faults/retry.py",
            "import repro.errors as errors\n"
            "def pump(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except (ValueError, errors.SamplingError):\n"
            "        pass\n",
            [(5, "SamplingError handler")],
            id="swallowed-tuple-attribute",
        ),
        pytest.param(
            "execution/vectorized.py",
            _handler("ZeroProbabilityTrajectory"),
            [(4, "ZeroProbabilityTrajectory handler")],
            id="swallowed-zero-probability",
        ),
        pytest.param(
            "execution/batched.py",
            _handler("SweepError", "..."),
            [(4, "SweepError handler")],
            id="swallowed-sweep-error",
        ),
        pytest.param(
            # Defined in repro.sweep.spec, not repro.errors: the import walk finds it.
            "execution/batched.py",
            _handler("SweepSpecError"),
            [(4, "SweepSpecError handler")],
            id="swallowed-error-defined-outside-errors",
        ),
        pytest.param(
            "execution/streaming.py",
            _handler("ReproError", '"ignored"'),
            [(4, "ReproError handler")],
            id="swallowed-root-error-docstring-body",
        ),
        pytest.param(
            "faults/retry.py",
            _handler("BaseException", "return None"),
            [(4, "'except BaseException'")],
            id="base-exception-without-reraise",
        ),
        pytest.param(
            "execution/driver.py",
            _handler("(KeyError, Exception)"),
            [(4, "'except Exception'")],
            id="broad-inside-tuple",
        ),
        pytest.param(
            "execution/driver.py",
            _handler("Exception", "cleanup()\n        raise"),
            [],
            id="broad-with-bare-reraise-passes",
        ),
        pytest.param(
            "execution/driver.py",
            "from repro.errors import ExecutionError\n"
            "def pump(fn, unit):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        raise ExecutionError(f'unit {unit} died') from exc\n",
            [],
            id="broad-that-translates-passes",
        ),
        pytest.param(
            "execution/vectorized.py",
            _handler("CapacityError as exc", "events.append(exc)"),
            [],
            id="handled-repro-error-passes",
        ),
        pytest.param(
            "execution/streaming.py",
            "def pump(fn, policy):\n"
            "    try:\n"
            "        return fn()\n"
            "    except policy.retryable:\n"
            "        return None\n",
            [],
            id="non-literal-tuple-invisible",
        ),
        pytest.param(
            "analysis/estimators.py",
            "def safe(fn):\n    try:\n        return fn()\n    except:\n        return None\n",
            [],
            id="non-execution-module-ignored",
        ),
        pytest.param(
            "execution/batched.py",
            _handler("KeyError"),
            [],
            id="stdlib-narrow-except-passes",
        ),
    ],
)
def test_err001(path, source, expected):
    check_file_rule(err001, path, source, expected)


COMPLIANT_DISPATCH = """\
STRATEGIES = {"foo": ("repro.execution.foo", "FooExecutor")}

def run_ptsbe_stream(circuit, sampler, strategy="auto"):
    executor = executor_class(strategy)()
    stream = executor.execute_stream(circuit, [], seed=0, retain=True)
    stream.routing = "explicit"
    return stream
"""

COMPLIANT_EXECUTOR = """\
class FooExecutor(StreamingExecutor):
    def _engine(self, circuit):
        return _FooEngine()
"""

COMPLIANT = {"execution/batched.py": COMPLIANT_DISPATCH, "execution/foo.py": COMPLIANT_EXECUTOR}

BUILDS_ITS_OWN = "def drive():\n    return StreamedResult()\n"


@pytest.mark.parametrize(
    "files, expected",
    [
        pytest.param(COMPLIANT, [], id="compliant"),
        pytest.param(
            # Whatever engine= keyword it stamps, an executor that builds its
            # own StreamedResult has left the shared loop.
            {
                **COMPLIANT,
                "execution/foo.py": "class FooExecutor:\n"
                "    def execute_stream(self, circuit, specs, seed=None, retain=True):\n"
                '        return StreamedResult(engine="foo")\n',
            },
            [("execution/foo.py", 3, "outside execution/driver.py")],
            id="wrapper-executor",
        ),
        pytest.param(
            {**COMPLIANT, "execution/driver.py": BUILDS_ITS_OWN, "sweep/runner.py": BUILDS_ITS_OWN},
            [],
            id="driver-only",
        ),
        pytest.param(
            {
                **COMPLIANT,
                "execution/batched.py": COMPLIANT_DISPATCH.replace('    stream.routing = "explicit"\n', ""),
            },
            [("execution/batched.py", 1, "routing")],
            id="missing-routing",
        ),
        pytest.param(
            {**COMPLIANT, "execution/foo.py": BUILDS_ITS_OWN, "execution/bar.py": BUILDS_ITS_OWN},
            [
                ("execution/bar.py", 2, "outside execution/driver.py"),
                ("execution/foo.py", 2, "outside execution/driver.py"),
            ],
            id="every-offending-module",
        ),
        pytest.param({"pkg/module.py": "x = 1\n"}, [], id="non-repro-tree"),
    ],
)
def test_strat001(files, expected):
    check(strat001({path: ast.parse(source) for path, source in files.items()}), expected)
