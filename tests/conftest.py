import ctypes
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from numpy._core import _multiarray_umath

from optlab import ClipConfig, ParamTensor
from optlab.transforms import scale_units, unit_scale_factors


def tensor_shapes(max_rank=4, max_extent=5):
    return st.integers(1, max_rank).flatmap(
        lambda r: st.tuples(*([st.integers(1, max_extent)] * r))
    )


def tensors(name="t", max_rank=4, max_extent=5, max_value=1e6):
    """ParamTensor strategy with moderate finite float64 values."""
    elements = st.floats(
        min_value=-max_value, max_value=max_value, allow_nan=False, allow_infinity=False
    )

    def build(shape):
        n = int(np.prod(shape))
        return st.lists(elements, min_size=n, max_size=n).map(
            lambda vals: ParamTensor(name, shape, vals)
        )

    return tensor_shapes(max_rank, max_extent).flatmap(build)


def adaptive_gradient_clip(g, theta, cfg=ClipConfig()):
    """The step's unit-wise clip of one gradient array: each unit whose norm
    exceeds tau times its parameter norm is rescaled to that limit."""
    return scale_units(g, unit_scale_factors(g, theta, cfg))


# The host class the goldens (configs/golden/, the pinned hit steps) were
# recorded on. numpy's SIMD level moves np.exp, np.log and np.tanh, and
# OpenBLAS's kernel set moves gemm and ddot; the thread count moves ddot only
# on vectors above about 8,000 values, which no shipped config has.
GOLDEN_HOST_CLASS = "numpy SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS SkylakeX"


def host_class():
    """What decides the goldens' bits on this host: the dispatched SIMD
    features numpy found, the OpenBLAS core numpy's bundled OpenBLAS runs
    (``unknown`` when it does not export ``scipy_openblas_get_corename64_``),
    and its thread count."""
    features = _multiarray_umath.__cpu_features__
    simd = [f for f in _multiarray_umath.__cpu_dispatch__ if features.get(f)]
    core = threads = "unknown"
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            get_core, get_threads = (
                lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_num_threads64_
            )
            get_core.argtypes, get_core.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            core, threads = get_core().decode(), get_threads()
            break
    simd = " ".join(simd) or "none past the baseline"
    return f"numpy SIMD {simd}; OpenBLAS {core}; {threads} BLAS threads"


def host_class_note():
    """For a golden comparison's failure message: this host's class next to
    the goldens'."""
    return f"host class: {host_class()}; goldens recorded on: {GOLDEN_HOST_CLASS}"
