"""Kernel backend selection.

The exact pair arithmetic and the float refinement loop exist twice: a
compiled Cython extension (``_speedup``) and a pure-Python reference
(``_pure``).  By default the compiled one is used when it is importable and
the pure one otherwise; set ROOT_ENCLOSE_KERNEL=pure or =compiled to force a
backend (forcing ``compiled`` raises if the extension was not built).

Both backends are exact and agree value-for-value; ``benchmarks/`` holds a
micro-benchmark comparing their speed.
"""

import os

from . import _pure

_CHOICE = os.environ.get("ROOT_ENCLOSE_KERNEL", "auto").strip().lower()

if _CHOICE == "pure":
    _impl = _pure
elif _CHOICE == "compiled":
    from . import _speedup as _impl
elif _CHOICE == "auto":
    try:
        from . import _speedup as _impl
    except ImportError:
        _impl = _pure
else:
    raise RuntimeError(
        f"ROOT_ENCLOSE_KERNEL={_CHOICE!r} is not one of auto, pure, compiled"
    )

BACKEND_NAME = _impl.BACKEND_NAME
norm_pair = _impl.norm_pair
pow_pair = _impl.pow_pair
geom_sum_pair = _impl.geom_sum_pair
form_pair = _impl.form_pair
apply_pairs = _impl.apply_pairs
apply_reduced_pairs = _impl.apply_reduced_pairs
refine_float_loop = _impl.refine_float_loop


def load_backend(name):
    """Import a specific backend module by name ("pure" or "compiled")."""
    if name == "pure":
        return _pure
    if name == "compiled":
        from . import _speedup
        return _speedup
    raise ValueError(f"unknown kernel backend {name!r}")
