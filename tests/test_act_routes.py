"""``GAlgebra.act`` gathers only the block sizes whose blocks (or, for
monomial unitaries, entries) some g moves.  These tests compare it bit for
bit with ``gather_act``, the route that gathers every size, on algebras
whose blocks move (mixed sizes), whose dense blocks stay put (matrix
algebras, the towers of copies), whose monomial entries stay put (the
lift's phases) or move (the Rokhlin permutations, the inversion flip), and
on the trivial action; for g an int, an array paired with the stack, an
arange and the outer form g[:, None]; with Blocks and dense arguments.
Every result must be a fresh, writable array: writing into it leaves the
argument and the model unchanged."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dense_reference import gather_act, random_blocks, trivial_algebra
from equifix import scenarios
from equifix.galgebra import matrix_algebra
from equifix.groups import make_group
from equifix.matfun import Blocks
from equifix.scenarios import exact_rep_values
from test_blocks import CONFIGS, orbit_tower, permuted_algebra
from test_stacked_pairs import algebra_for, index_arrays, monomial_algebra, outer

seeds = st.integers(0, 2 ** 32 - 1)
SPECS = [{"kind": "cyclic", "params": 3}, {"kind": "dihedral", "params": 3},
         {"kind": "product", "params": [["cyclic", 2], ["cyclic", 2]]}]


def spec_group(rng):
    spec = SPECS[int(rng.integers(len(SPECS)))]
    return spec, make_group(spec["kind"], spec["params"])


def levels(tower):
    return [tower.level(n) for n in range(tower.top + 1)]


def moving(rng):
    config = CONFIGS[int(rng.integers(len(CONFIGS)))]
    return [permuted_algebra(config, rng),
            orbit_tower(permuted_algebra(config, rng)).level(1),
            monomial_algebra(config, rng, bool(rng.integers(2)), 3)]


def matrix(rng):
    spec, group = spec_group(rng)
    dim = int(rng.integers(1, 5))
    return [matrix_algebra(dim, group, list(exact_rep_values(spec, group, dim, rng))),
            algebra_for(spec, group, rng, None, (2, 1, 3, 2))]


def copies(rng):
    spec, group = spec_group(rng)
    dim = int(rng.integers(1, 5))
    return levels(scenarios._copies_tower(group, exact_rep_values(spec, group, dim, rng),
                                          int(rng.integers(2, 4))))


def lift(rng):
    model = ("translation", "inversion")[int(rng.integers(2))]
    return levels(scenarios._lift_model(model, int(rng.integers(1, 7)), 3)[0])


def rokhlin(rng):
    return [scenarios._rokhlin_model(int(rng.integers(1, 5)), int(rng.integers(1, 3)),
                                     int(rng.integers(0, 2)))[0]]


def trivial(rng):
    return [trivial_algebra((2, 3, 2), spec_group(rng)[1])]


# Each model maps an rng to the algebras it tests.
MODELS = {f.__name__: f for f in (moving, matrix, copies, lift, rokhlin, trivial)}


def same_bits(a, b):
    if isinstance(a, Blocks):
        return len(a.parts) == len(b.parts) and all(map(same_bits, a.parts, b.parts))
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def model_arrays(algebra):
    return [a for name in ("_u", "_uh", "_src", "_idx", "_w")
            for a in getattr(algebra, name) if a is not None]


def assert_fresh_and_equal(algebra, g, x):
    """act(g, x) has the bits of gather_act's result; every part is
    writable and shares no memory with x, and overwriting it leaves x and
    the model's arrays unchanged."""
    want = gather_act(algebra)(g, x)
    arg_parts = x.parts if isinstance(x, Blocks) else (x,)
    before = [p.copy() for p in arg_parts]
    model = [a.copy() for a in model_arrays(algebra)]
    got = algebra.act(g, x)
    assert type(got) is type(want) and same_bits(got, want)
    for p in got.parts if isinstance(got, Blocks) else (got,):
        assert p.flags.writeable
        assert not any(np.shares_memory(p, q) for q in arg_parts)
        assert not any(np.shares_memory(p, q) for q in model_arrays(algebra))
        p[...] = 7.0
    assert all(same_bits(p, q) for p, q in zip(arg_parts, before))
    assert all(same_bits(a, b) for a, b in zip(model_arrays(algebra), model))


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(sorted(MODELS)), st.booleans(), st.data())
def test_act_is_bit_equal_to_the_gather_route(seed, model, writable, data):
    rng = np.random.default_rng(seed)
    for algebra in MODELS[model](rng):
        order = algebra.group.order
        lead = data.draw(st.sampled_from([(), (2,), (order,), (2, order)]))
        a = random_blocks(algebra.blocks, rng, lead)
        args = [a] + ([a.parts[0][..., 0, :, :]] if len(algebra.blocks) == 1 else [])
        forms = [int(rng.integers(order)), rng.integers(0, order, lead),
                 outer(np.arange(order), lead),
                 outer(data.draw(index_arrays(order)), lead)]
        if lead[-1:] == (order,) or not lead:
            forms.append(np.arange(order))
        for x in args:
            for p in x.parts if isinstance(x, Blocks) else (x,):
                p.flags.writeable = writable
            for g in forms:
                assert_fresh_and_equal(algebra, g, x)


def test_each_model_takes_the_route_its_maps_need():
    # Dense sizes whose blocks stay put take no gather, the lift's phases
    # take only their weights, and an identity size is gathered: its copy.
    rng = np.random.default_rng(0)
    group = make_group("cyclic", 3)
    action = exact_rep_values(SPECS[0], group, 4, rng)
    routes = [
        (scenarios._copies_tower(group, action).algebra, (False,), (None,)),
        (matrix_algebra(4, group, list(action)), (False,), (None,)),
        (scenarios._lift_model("translation", 6, 3)[0].algebra, (False,), (True,)),
        (scenarios._lift_model("inversion", 4, 3)[0].algebra, (True,), (False,)),
        (scenarios._rokhlin_model(4, 2, 1)[0], (True,), (False,)),
        (permuted_algebra(CONFIGS[0], rng), (True, True), (None, None)),
        (trivial_algebra((2, 3, 2), group), (True, True), (False, False))]
    for algebra, gather, weights in routes:
        assert algebra._gather == gather
        # None: a dense size, which has no weights; else whether it has any.
        assert tuple(None if i is None else w is not None
                     for i, w in zip(algebra._idx, algebra._w)) == weights


def test_one_entry_phase_block_is_bit_equal_to_the_gather_route():
    # One 1 x 1 phase block and g adding axes: numpy multiplies one-entry
    # operands of unequal axis counts by another loop than the gather's.
    rng = np.random.default_rng(0)
    group = make_group("cyclic", 3)
    phases = matrix_algebra(1, group, np.exp(2j * np.pi / 3 * np.arange(3))[:, None, None])
    for _ in range(50):
        a = random_blocks((1,), rng)
        for g in (np.array([1]), np.array([[2]]), 1):
            assert_fresh_and_equal(phases, g, a)
