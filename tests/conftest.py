import hypothesis.strategies as st
import numpy as np

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
