"""Public API surface, config, and error-hierarchy contracts."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import Config, DEFAULT_CONFIG, configure
from repro.errors import (
    BackendError,
    CapacityError,
    ChannelError,
    CircuitError,
    DataError,
    ExecutionError,
    GateError,
    NoiseModelError,
    QECError,
    ReproError,
    SamplingError,
    ZeroProbabilityTrajectory,
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_import_does_not_load_multiprocessing(self):
        # workers defaults to 1: the pool machinery (a third of what
        # `import repro` cost above NumPy) loads where a pool is built.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, repro, repro.execution.driver, repro.faults.retry\n"
            "loaded = [m for m in sys.modules if m == 'concurrent.futures.process'"
            " or m.split('.')[0] == 'multiprocessing']\n"
            "assert not loaded, loaded\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "assert repro.faults.RetryPolicy().is_retryable(BrokenProcessPool('dead pool'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_pts_exports(self):
        from repro.pts import __all__ as pts_all
        import repro.pts as pts

        for name in pts_all:
            assert hasattr(pts, name)

    def test_analysis_exports(self):
        from repro.analysis import __all__ as a_all
        import repro.analysis as analysis

        for name in a_all:
            assert hasattr(analysis, name)

    def test_qec_exports(self):
        from repro.qec import __all__ as q_all
        import repro.qec as qec

        for name in q_all:
            assert hasattr(qec, name)

    def test_docstrings_on_public_modules(self):
        import repro.backends.mps
        import repro.execution.batched
        import repro.pts.probabilistic

        for mod in (repro, repro.pts.probabilistic, repro.execution.batched, repro.backends.mps):
            assert mod.__doc__ and len(mod.__doc__) > 40


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            CircuitError, GateError, ChannelError, NoiseModelError, BackendError,
            CapacityError, SamplingError, ExecutionError, QECError,
            DataError, ZeroProbabilityTrajectory,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_gate_error_is_circuit_error(self):
        assert issubclass(GateError, CircuitError)

    def test_capacity_is_backend_error(self):
        assert issubclass(CapacityError, BackendError)
        assert issubclass(ZeroProbabilityTrajectory, BackendError)


class TestConfig:
    def test_default_dtype(self):
        assert DEFAULT_CONFIG.dtype == np.dtype(np.complex128)

    def test_fields_are_the_tracked_four(self):
        assert [f.name for f in dataclasses.fields(Config)] == [
            "dtype",
            "max_dense_qubits",
            "fault_plan",
            "retry",
        ]

    def test_the_one_environment_hook_is_repro_faults(self):
        """Every read of the process environment in ``src/repro`` — an
        ``environ`` subscript or ``.get``, a ``getenv`` call — names its
        variable literally, and the only variable named is ``REPRO_FAULTS``."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        read = set()
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            parent = {kid: node for node in ast.walk(tree) for kid in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                name = getattr(node, "attr", getattr(node, "id", None))
                if name not in ("environ", "environb", "getenv", "getenvb"):
                    continue
                if isinstance(node, ast.Name) and isinstance(parent.get(node), ast.alias):
                    continue
                site = parent.get(node)
                if isinstance(site, ast.Attribute) and site.attr == "get":
                    site = parent.get(site)
                if isinstance(site, ast.Call) and site.args:
                    key = site.args[0]
                elif isinstance(site, ast.Subscript):
                    key = site.slice
                else:
                    key = None
                assert isinstance(key, ast.Constant), f"{path.name}:{node.lineno} reads the environment"
                read.add(key.value)
        assert read == {"REPRO_FAULTS"}

    def test_replace_returns_copy(self):
        cfg = Config()
        other = cfg.replace(max_dense_qubits=10)
        assert other.max_dense_qubits == 10
        assert cfg.max_dense_qubits != 10 or cfg is not other

    def test_configure_rejects_unknown_field(self):
        with pytest.raises(AttributeError):
            configure(nonsense=3)

    def test_configure_roundtrip(self):
        original = DEFAULT_CONFIG.max_dense_qubits
        try:
            configure(max_dense_qubits=20)
            assert DEFAULT_CONFIG.max_dense_qubits == 20
        finally:
            configure(max_dense_qubits=original)
