"""The arithmetic kernels: exact pair arithmetic and the float refinement loop.

They are implemented once, in pure Python (``_pure``); this module re-exports
the names the rest of the package calls.
"""

from ._pure import (
    BACKEND_NAME,
    apply_pairs,
    apply_reduced_pairs,
    form_pair,
    refine_float_loop,
)
