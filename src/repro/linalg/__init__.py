"""Dense linear-algebra helpers shared by the simulation backends."""

from repro.linalg.apply import (
    CompiledOperator,
    apply_compiled_stack,
    apply_gemm_stack,
    apply_matrix_stack,
    compile_operator,
)
from repro.linalg.reductions import row_norms_squared
from repro.linalg.sampling import bits_from_indices, inverse_cdf_indices
from repro.linalg.fusion import (
    expand_to_support,
    fuse_window_matrix,
    window_support,
)
from repro.linalg.kron import (
    embed_operator,
    kron_all,
    permute_operator_qubits,
)
from repro.linalg.unitary import (
    closest_unitary,
    is_hermitian,
    is_unitary,
    random_statevector,
    random_unitary,
)
from repro.linalg.decompositions import (
    truncated_svd,
    truncated_svd_batched,
    schmidt_decomposition,
)

__all__ = [
    "CompiledOperator",
    "apply_compiled_stack",
    "apply_gemm_stack",
    "apply_matrix_stack",
    "compile_operator",
    "row_norms_squared",
    "bits_from_indices",
    "inverse_cdf_indices",
    "expand_to_support",
    "fuse_window_matrix",
    "window_support",
    "embed_operator",
    "kron_all",
    "permute_operator_qubits",
    "closest_unitary",
    "is_hermitian",
    "is_unitary",
    "random_statevector",
    "random_unitary",
    "truncated_svd",
    "truncated_svd_batched",
    "schmidt_decomposition",
]
