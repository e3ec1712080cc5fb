import random
import sys

import pytest

from commcert import MatD, QuaternionAlgebra, random_quat


def _commcert_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "commcert" or name.startswith("commcert.")}


COLLECTED = pytest.StashKey[dict]()


def pytest_collection_finish(session):
    """Every test module is imported now: remember the commcert modules
    they were imported with."""
    session.config.stash[COLLECTED] = _commcert_modules()


@pytest.fixture(autouse=True)
def _commcert_as_collected(request):
    """perfbench's library.load() imports commcert afresh.  A test here
    that runs after it would mix the classes its module was imported
    with and the new ones, so the modules of collection time go back
    into sys.modules first."""
    collected = request.config.stash.get(COLLECTED, None)
    if collected and _commcert_modules() != collected:
        for name in _commcert_modules():
            del sys.modules[name]
        sys.modules.update(collected)


@pytest.fixture(scope="session")
def alg():
    return QuaternionAlgebra()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rand_unit(alg, rng, span=2):
    return random_quat(alg, rng, span=span, nonzero=True)


def rand_lower(alg, n, rng, span=1):
    from commcert.certify import random_unitriangular

    return random_unitriangular(alg, n, rng, lower=True, span=span)


def rand_upper(alg, n, rng, span=1):
    from commcert.certify import random_unitriangular

    return random_unitriangular(alg, n, rng, lower=False, span=span)


def rand_invertible(alg, n, rng):
    from commcert.matrix import random_invertible

    return random_invertible(alg, n, rng, random_quat)


def with_entry(m, i, j, q):
    """m with entry (i, j), 1-based, replaced by q."""
    rows = [list(r) for r in m.rows]
    rows[i - 1][j - 1] = q
    return MatD(m.alg, rows)


def mat_comm(x, y):
    return x * y * x.inverse() * y.inverse()


def mat_product(alg, n, ms):
    out = MatD.identity(alg, n)
    for m in ms:
        out = out * m
    return out


def diagonal_round_trip(alg, n, c, seed):
    """The gl matrix certificate for diag(1, ..., 1, delta), where delta is
    a product of c commutators of seeded units with coordinates in
    {-1, 0, 1} (the shape of the down workload's instances), and delta:
    the input of a lower_extract round trip."""
    from commcert.certify import BasedInstance, factor_commutators_gl
    from commcert.wordcalc import CommutatorCert, comm, product

    rng = random.Random(seed)
    pairs = tuple(
        (random_quat(alg, rng, span=1, nonzero=True), random_quat(alg, rng, span=1, nonzero=True))
        for _ in range(c)
    )
    delta = product((comm(a, b) for a, b in pairs), alg.one)
    ident = MatD.identity(alg, n)
    inst = BasedInstance(alg, n, ident, ident, delta, CommutatorCert(pairs, delta))
    return factor_commutators_gl(inst), delta
