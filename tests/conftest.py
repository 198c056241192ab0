import itertools
from importlib import resources

import pytest

from sharpsets import designs, perm


def shipped_group_path(name):
    """Path of a group file shipped with the package, e.g. 'm22'."""
    return resources.files("sharpsets").joinpath(f"data/groups/{name}.grp")


def cyc(n, *cycles):
    return perm.from_cycles(n, *cycles)


def make_group(n, name, *gen_cycle_lists):
    gens = tuple(perm.from_cycles(n, *cycs) for cycs in gen_cycle_lists)
    return perm.enumerate_group(perm.GroupSpec(n, gens, name))


@pytest.fixture(scope="session")
def witt():
    return designs.golay_witt_design()


@pytest.fixture(scope="session")
def mclaughlin():
    return designs.mclaughlin_graph()


@pytest.fixture(scope="session")
def m22_spec(witt):
    return designs.witt_stabilizer_generators(witt)


@pytest.fixture(scope="session")
def m22_enum(m22_spec):
    return perm.enumerate_group(m22_spec)


@pytest.fixture(scope="session")
def c5():
    return make_group(5, "C5", [(0, 1, 2, 3, 4)])


@pytest.fixture(scope="session")
def c6():
    return make_group(6, "C6", [(0, 1, 2, 3, 4, 5)])


@pytest.fixture(scope="session")
def s3():
    return make_group(3, "S3", [(0, 1)], [(0, 1, 2)])


@pytest.fixture(scope="session")
def s4():
    return make_group(4, "S4", [(0, 1)], [(0, 1, 2, 3)])


@pytest.fixture(scope="session")
def a4():
    return make_group(4, "A4", [(0, 1, 2)], [(1, 2, 3)])


@pytest.fixture(scope="session")
def s5():
    return make_group(5, "S5", [(0, 1)], [(0, 1, 2, 3, 4)])


@pytest.fixture(scope="session")
def a6():
    return make_group(6, "A6", [(0, 1, 2)], [(1, 2, 3, 4, 5)])


@pytest.fixture(scope="session")
def s6():
    return make_group(6, "S6", [(0, 1)], [(0, 1, 2, 3, 4, 5)])


@pytest.fixture(scope="session")
def s7():
    return make_group(7, "S7", [(0, 1)], [(0, 1, 2, 3, 4, 5, 6)])


@pytest.fixture(scope="session")
def fano_stabilizer():
    """Order-24 point stabilizer of the Fano plane's automorphism group on 6 points."""
    blocks = [frozenset({i % 7, (1 + i) % 7, (3 + i) % 7}) for i in range(7)]
    block_set = set(blocks)
    auts = [
        p
        for p in itertools.permutations(range(7))
        if all(frozenset(p[x] for x in b) in block_set for b in blocks)
    ]
    assert len(auts) == 168
    stab = sorted(p[:6] for p in auts if p[6] == 6)
    assert len(stab) == 24
    return perm.enumeration_from_elements(6, stab, "fano-stab")
