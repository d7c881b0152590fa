"""Backend-purity rules: keep device-path math on the ``xp`` namespace.

The CuPy drop-in contract (ROADMAP: "all dense math routes through an
``xp`` namespace") only holds if no device-path module calls NumPy
compute functions directly — ``np.matmul`` on a CuPy array either
crashes or silently round-trips through host memory.  These rules make
the convention mechanical:

* **XP001** — direct ``numpy`` *compute* calls (linear algebra,
  elementwise transcendentals, reductions, axis-movers) in the
  device-path module set.  Constant/dtype construction (``np.empty``,
  ``np.asarray``, ``np.uint8`` ...) is allowed: building host-side index
  vectors and bit tables is the boundary working as designed, and
  ``linalg/backend.py`` — the boundary itself — is exempt wholesale.
* **XP002** — device→host transfer calls (``to_host``,
  ``to_host_pinned``, zero-arg ``.get()``/``.item()``, ``float()`` of a
  device-derived value) lexically inside a loop in an executor hot path.
  One transfer per stack is the design; one per row is the O(B) host-sync
  pattern the batched-renormalization pass removed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.framework import FileRule, register

__all__ = ["XP001DirectNumpyCompute", "XP002HostTransferInLoop"]

#: Modules whose array math must route through ``xp`` (root-relative
#: POSIX prefixes/paths).  ``execution/`` covers every strategy module.
DEVICE_PATH_MODULES = (
    "linalg/apply.py",
    "linalg/reductions.py",
    "linalg/decompositions.py",
    "backends/batched_statevector.py",
    "backends/mps.py",
    "backends/mps_sampler.py",
    "execution/",
)

#: The boundary allowlist: the array-module layer itself may (must)
#: import NumPy directly.
BOUNDARY_ALLOWLIST = ("linalg/backend.py",)

#: ``numpy.<name>`` call targets that are *compute* — work that belongs
#: on the array module so it runs device-side under CuPy.  Construction
#: (``empty``/``zeros``/``asarray``/dtype scalars) is deliberately
#: absent: host-side tables and compile-time constants are legitimate.
NUMPY_COMPUTE_CALLS = frozenset(
    {
        # linear algebra / contractions
        "matmul", "dot", "vdot", "inner", "outer", "einsum", "tensordot",
        "kron", "trace",
        "linalg.svd", "linalg.qr", "linalg.eig", "linalg.eigh",
        "linalg.norm", "linalg.inv", "linalg.solve", "linalg.cholesky",
        # elementwise math
        "exp", "log", "log2", "sqrt", "abs", "absolute", "conj",
        "conjugate", "angle", "sign", "add", "subtract", "multiply",
        "divide", "true_divide", "power", "maximum", "minimum",
        # reductions / scans / selection
        "sum", "prod", "mean", "cumsum", "cumprod", "searchsorted",
        "where", "argmax", "argmin", "sort", "argsort",
        # axis movers that materialize transposed copies on the wrong
        # module when applied to a device stack
        "moveaxis", "swapaxes", "transpose", "concatenate", "stack",
        # FFTs
        "fft.fft", "fft.ifft", "fft.fftn", "fft.ifftn",
    }
)

#: Executor hot paths where a per-iteration host sync is a real
#: throughput bug (the module set XP002 patrols).
EXECUTOR_HOT_PATHS = (
    "execution/batched.py",
    "execution/vectorized.py",
    "execution/clifford.py",
    "execution/tensornet.py",
    "backends/batched_statevector.py",
)

#: Transfer method names that always cross the device boundary.
TRANSFER_METHODS = frozenset({"to_host", "to_host_pinned", "asnumpy"})

#: Expression sources that mark a name as (potentially) device-resident.
_DEVICE_SOURCES = frozenset(
    {"xp", "_xp", "_stack", "apply_compiled_stack", "apply_gemm_stack",
     "row_norms_squared", "cumulative_stack"}
)


def _in_device_paths(path: str) -> bool:
    if path in BOUNDARY_ALLOWLIST:
        return False
    return any(
        path == entry or (entry.endswith("/") and path.startswith(entry))
        for entry in DEVICE_PATH_MODULES
    )


@register
class XP001DirectNumpyCompute(FileRule):
    id = "XP001"
    title = "direct numpy compute call in a device-path module"
    rationale = (
        "Dense math in device-path modules must run on the resolved xp "
        "namespace (ArrayBackend.xp) so the same kernel source serves "
        "NumPy and CuPy; a direct np.* compute call either fails on "
        "device arrays or forces a silent host round-trip."
    )

    def applies_to(self, path: str) -> bool:
        return _in_device_paths(path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node)
            if resolved is None or not resolved.startswith("numpy."):
                continue
            func = resolved[len("numpy."):]
            if func in NUMPY_COMPUTE_CALLS:
                yield Finding(
                    rule=self.id,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=(
                        f"numpy compute call '{func}' in a device-path "
                        f"module; route it through the xp namespace "
                        f"(ArrayBackend.xp) so CuPy stays a drop-in"
                    ),
                    scope=ctx.scope_of(node),
                    text=ctx.line_text(node.lineno),
                )


def _device_tainted_names(
    ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> Set[str]:
    """Names assigned from device-suspect expressions inside ``func``.

    A tiny, deliberately conservative dataflow pass: a name becomes
    *tainted* when its right-hand side mentions the ``xp`` module, a
    stack attribute, or a known device-kernel helper — and *untainted*
    again when reassigned through a ``to_host`` boundary call.  Only
    tainted names make ``float(name[...])`` a finding, which keeps
    ``float(weights[row])`` on host NumPy results quiet.
    """
    tainted: Set[str] = set()
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        crosses_boundary = False
        device_source = False
        for sub in ast.walk(stmt.value):
            if isinstance(sub, ast.Attribute) and sub.attr in TRANSFER_METHODS:
                crosses_boundary = True
            name = sub.id if isinstance(sub, ast.Name) else (
                sub.attr if isinstance(sub, ast.Attribute) else None
            )
            if name in _DEVICE_SOURCES:
                device_source = True
        if crosses_boundary:
            tainted.discard(target.id)
        elif device_source:
            tainted.add(target.id)
    return tainted


@register
class XP002HostTransferInLoop(FileRule):
    id = "XP002"
    title = "device->host transfer inside a loop in an executor hot path"
    rationale = (
        "Executor hot paths budget one host sync per stack (weights, "
        "shot indices); a to_host/.get()/.item()/float() crossing inside "
        "a loop reintroduces the O(B) per-row sync the batched "
        "reductions were built to remove."
    )

    def applies_to(self, path: str) -> bool:
        return path in EXECUTOR_HOT_PATHS

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        taint_cache: Dict[ast.AST, Set[str]] = {}
        for node in ctx.walk():
            if not isinstance(node, ast.Call) or not ctx.in_loop(node):
                continue
            finding = self._classify(ctx, node, taint_cache)
            if finding is not None:
                yield finding

    def _classify(
        self,
        ctx: FileContext,
        node: ast.Call,
        taint_cache: Dict[ast.AST, Set[str]],
    ) -> "Finding | None":
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in TRANSFER_METHODS:
                return self._finding(
                    ctx, node,
                    f"'{func.attr}' inside a loop: hoist the transfer out "
                    f"of the per-row path (one bulk sync per stack)",
                )
            if func.attr in ("get", "item") and not node.args and not node.keywords:
                return self._finding(
                    ctx, node,
                    f"zero-argument '.{func.attr}()' inside a loop is a "
                    f"per-iteration device->host sync under CuPy",
                )
            return None
        if (
            isinstance(func, ast.Name)
            and func.id in ("float", "complex", "int")
            and len(node.args) == 1
        ):
            arg = node.args[0]
            base = arg.value if isinstance(arg, ast.Subscript) else arg
            if not isinstance(base, ast.Name):
                return None
            owner = ctx.enclosing_function(node)
            if owner is None:
                return None
            if owner not in taint_cache:
                taint_cache[owner] = _device_tainted_names(ctx, owner)
            if base.id in taint_cache[owner]:
                return self._finding(
                    ctx, node,
                    f"'{func.id}()' of device-derived '{base.id}' inside a "
                    f"loop forces a per-iteration host sync; reduce on the "
                    f"array module and cross once via to_host",
                )
        return None

    def _finding(self, ctx: FileContext, node: ast.Call, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=node.lineno,
            column=node.col_offset,
            message=message,
            scope=ctx.scope_of(node),
            text=ctx.line_text(node.lineno),
        )
