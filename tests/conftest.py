import json
import os

import pytest

import carpetquant as cq

# Desk-scale reference carpet: 2x3 grid, three cells, non-uniform fibres.
DESK1 = {"m": 2, "n": 3, "entries": [[0, 0, 0.4], [1, 1, 0.3], [2, 1, 0.3]]}

POOL_SEED = 20240816
POOL_SIZE = 200_000


def _has_child() -> bool:
    """Whether this process has a child, running or zombie (a zombie is reaped)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of the pytest process, running or zombie."""
    had_child = _has_child()
    yield
    if not had_child and _has_child():
        pytest.fail("the test left a child process of the test process behind")


@pytest.fixture(scope="session")
def desk1():
    spec = cq.load_config(DESK1)
    cq.validate_spec(spec)
    return spec


@pytest.fixture(scope="session")
def consts2(desk1):
    return cq.constants(desk1, 2.0)


@pytest.fixture(scope="session")
def pw2(desk1, consts2):
    return cq.product_weights(desk1, consts2)


@pytest.fixture(scope="session")
def upsilon(desk1, consts2):
    """Memoized threshold antichains, shared across the whole test run."""
    cache = {}

    def get(j):
        if j not in cache:
            cache[j] = cq.build_upsilon(desk1, consts2, j)
        return cache[j]

    return get


@pytest.fixture(scope="session")
def pool(desk1):
    return cq.sample(desk1, POOL_SIZE, seed=POOL_SEED)


@pytest.fixture(scope="session")
def desk1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "desk1.json"
    path.write_text(json.dumps(DESK1))
    return str(path)
