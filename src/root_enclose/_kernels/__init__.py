"""The exact arithmetic kernels: map evaluation on integer pairs.

They are implemented once, in pure Python (``_pure``); this module re-exports
the names the rest of the package calls.
"""

from ._pure import (
    BACKEND_NAME,
    apply_pairs,
    apply_reduced_pairs,
    endpoint_pair,
    form_pair,
)
