import hashlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bmatch.core import validate
from bmatch.gen import PROFILES, random_degree_set, random_instance

from conftest import src_env


def test_same_seed_same_instance():
    a = random_instance(11, 6, 9, profile="mixed", weights=(-5, 5))
    b = random_instance(11, 6, 9, profile="mixed", weights=(-5, 5))
    assert a == b


def test_different_seeds_differ():
    a = random_instance(1, 8, 12)
    b = random_instance(2, 8, 12)
    assert a != b


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(PROFILES))
def test_generated_instances_always_validate(seed, profile):
    inst = random_instance(seed, n=1 + seed % 7, m=seed % 11, profile=profile)
    assert validate(inst) == []


def test_profile_shapes():
    rng = random.Random(0)
    for _ in range(200):
        interval = random_degree_set(rng, 6, "interval")
        assert all(b - a == 1 for a, b in zip(interval.values, interval.values[1:]))
        parity = random_degree_set(rng, 6, "parity")
        assert all(b - a == 2 for a, b in zip(parity.values, parity.values[1:]))
        mixed = random_degree_set(rng, 6, "mixed")
        assert all(b - a in (1, 2) for a, b in zip(mixed.values, mixed.values[1:]))


def test_rejects_unknown_profile():
    with pytest.raises(ValueError):
        random_degree_set(random.Random(0), 4, "bogus")


def test_loops_flag():
    inst = random_instance(5, 4, 30, loops=False)
    assert all(u != v for u, v, _w in inst.graph.edges)


def test_weight_range_respected():
    inst = random_instance(5, 4, 30, weights=(-2, 3))
    assert all(-2 <= w <= 3 for _u, _v, w in inst.graph.edges)


def test_objective_passthrough():
    assert random_instance(0, 2, 2, objective="min-weight").objective == "min-weight"


# Digests of what randrange, randint and choice((1, 2)) draw from these
# seeds: the generator's getrandbits draws must give the same instances
# and sets value for value.
INSTANCES_SHA256 = "67cd2e2b5243a96b27db3adaacf62d1acfba2ec4b659853b4cb0314f4d73982f"
DEGREE_SETS_SHA256 = "f5ab23af63dcb7f7c63eeb946b4ee592c4f59d84e126260eda49cf341dee52b8"


def test_instance_draws_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in (0, 1):
        for n in range(2, 11):
            for m in range(23):
                for profile in PROFILES:
                    for weights in ((1, 1), (-5, 5)):
                        for loops in (True, False):
                            inst = random_instance(
                                seed, n, m, profile=profile, weights=weights, loops=loops
                            )
                            digest.update(repr(inst).encode() + b"\n")
                            count += 1
    assert count == 4968
    assert digest.hexdigest() == INSTANCES_SHA256


def test_degree_set_draws_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(0)
    for profile in PROFILES:
        for top in range(9):
            for _ in range(20):
                digest.update(repr(random_degree_set(rng, top, profile)).encode() + b"\n")
    assert digest.hexdigest() == DEGREE_SETS_SHA256


def test_empty_weight_range_raises_without_looping():
    # In a child process with a timeout, so that a redraw loop that never
    # ends fails the test instead of hanging it.
    code = (
        "from bmatch.gen import random_instance\n"
        "try:\n"
        "    random_instance(0, 3, 2, weights=(3, 1))\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True,
        text=True, timeout=30,
    )
    assert done.stdout == "ValueError\n", done.stderr
    # With no edges, no weight is drawn.
    assert random_instance(0, 3, 0, weights=(3, 1)).graph.edges == ()


def test_bad_profile_raises_only_where_a_set_is_drawn():
    with pytest.raises(ValueError, match="profile"):
        random_instance(0, 2, 3, profile="bogus")
    inst = random_instance(0, 0, 0, profile="bogus")
    assert inst.graph.vertex_count == 0 and inst.degree_sets == ()


def test_negative_max_degree_raises():
    with pytest.raises(ValueError):
        random_degree_set(random.Random(0), -1, "mixed")
    with pytest.raises(ValueError, match="profile"):
        random_degree_set(random.Random(0), -1, "bogus")
