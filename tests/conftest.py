import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

from hslag.models import CircleSphereModel, TorusModel, circle_sphere_lagrangian, clifford_torus

RADII = (1.0, 1.3)
T = 0.05  # the scale of the shared reduction problem


@pytest.fixture(scope="session")
def torus_model():
    return TorusModel(radii=RADII, grid_size=32)


@pytest.fixture(scope="session")
def torus(torus_model):
    return clifford_torus(torus_model)


@pytest.fixture(scope="session")
def circle_sphere_model():
    return CircleSphereModel(n=2, grid_size=32)


@pytest.fixture(scope="session")
def circle_sphere(circle_sphere_model):
    return circle_sphere_lagrangian(circle_sphere_model)


@pytest.fixture(scope="session")
def flat_operator(torus_model):
    from hslag.operators import assemble_flat_operator

    return assemble_flat_operator(torus_model)


@pytest.fixture(scope="session")
def hessian_oracle():
    """Complex-step Hessian of the discrete volume at the flat torus, by grid size.

    The dense, independently assembled counterpart of the flat symbol operator;
    each size is assembled once per session.  build(size) is the symmetrized
    operator; build(size, raw=True) the assembly before symmetrization, whose
    asymmetry is the one left to measure.
    """
    from oracles import _assemble_graph_hessian, flat_chart

    cache = {}

    def build(size, raw=False):
        if size not in cache:
            model = TorusModel(radii=RADII, grid_size=size)
            assembled = _assemble_graph_hessian(model, flat_chart(model.n))
            cache[size] = (assembled, assembled.symmetrized())
        return cache[size][0 if raw else 1]

    return build


@pytest.fixture(scope="session")
def flat_spectrum(flat_operator):
    from hslag.operators import eigensolve

    return eigensolve(flat_operator)


@pytest.fixture(scope="session")
def cs_operator(circle_sphere_model):
    from hslag.operators import assemble_flat_operator

    return assemble_flat_operator(circle_sphere_model)


@pytest.fixture(scope="session")
def cs_spectrum(cs_operator):
    from hslag.operators import eigensolve

    return eigensolve(cs_operator)


@pytest.fixture(scope="session")
def reduction_ctx(torus_model):
    from hslag.reduction import build_context

    return build_context(torus_model)


@pytest.fixture(scope="session")
def base_reduction_state(reduction_ctx):
    from hslag.reduction import projected_solve, random_frame_state

    frame = random_frame_state(reduction_ctx, seed=7)
    return projected_solve(reduction_ctx, T, frame)


@pytest.fixture(scope="session")
def frame_optimum_timed(reduction_ctx):
    import time

    from hslag.reduction import optimize_frame, random_frame_state

    frame = random_frame_state(reduction_ctx, seed=1)
    start = time.perf_counter()
    result = optimize_frame(reduction_ctx, T, frame)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def frame_optimum(frame_optimum_timed):
    return frame_optimum_timed[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)
