"""Goal-prior queries equal their all-configuration reference loops exactly.

``GoalPrior`` conditions on a knowledge vector by walking only the
configurations consistent with it, hpg reads its multipliers from a scan of
the posterior by mass, and sampling bisects a cumulative list.
Each must give bit-identical floats to the loops in ``oracles.py``, since a
last-bit change can flip a solver's tie between actions, and every float
leaving the prior layer must be a Python ``float``.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gussp.compiler import CompiledSsp
from gussp.heuristics import HpgHeuristic
from gussp.model import GoalPrior, GusspModel, KnowledgeVector

from oracles import (
    bernoulli_reference,
    hpg_multipliers_reference,
    marginal_reference,
    posterior_reference,
    revelation_reference,
    sample_config_reference,
)

MAX_N = 7
ROOT = Path(__file__).resolve().parent.parent


@st.composite
def priors(draw):
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    kind = draw(st.sampled_from(["uniform", "bernoulli", "explicit", "victims"]))
    if kind == "uniform":
        return GoalPrior.uniform(n)
    if kind == "bernoulli":
        # coarse marginals make equal masses, so ties in the rank order occur
        grid = st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1.0])
        marginals = draw(st.lists(st.one_of(grid, st.floats(0.01, 1.0)),
                                  min_size=n, max_size=n))
        return GoalPrior.bernoulli(marginals)
    if kind == "victims":
        # search_rescue's prior: mass only on configurations of exactly v goals
        v = draw(st.integers(min_value=1, max_value=n))
        return GoalPrior.explicit(
            n, {m: 1.0 for m in range(1, 1 << n) if bin(m).count("1") == v})
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=12))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 5.0),
                            min_size=len(masks), max_size=len(masks)))
    return GoalPrior.explicit(n, dict(zip(masks, weights)))


@st.composite
def prior_and_knowledge(draw):
    """A prior and a knowledge vector some positive-mass configuration
    satisfies, with confirmed-goal and confirmed-not-goal bits."""
    prior = draw(priors())
    support = list(prior.config_probs())
    truth = draw(st.sampled_from(support))
    known = draw(st.integers(0, (1 << prior.n) - 1))
    return prior, KnowledgeVector(prior.n, yes=truth & known, no=known & ~truth)


def hpg_for(prior):
    return HpgHeuristic(SimpleNamespace(model=SimpleNamespace(prior=prior)), oracle=None)


@given(prior_and_knowledge())
@settings(max_examples=300, deadline=None)
def test_posterior_equals_filtered_prior(case):
    prior, k = case
    masks, probs = prior.posterior(k)
    expected = posterior_reference(prior, k)
    assert list(masks) == list(expected)
    assert list(probs) == list(expected.values())


@given(prior_and_knowledge())
@settings(max_examples=300, deadline=None)
def test_hpg_multipliers_equal_per_bit_loop(case):
    prior, k = case
    assert hpg_for(prior)._multipliers(k) == hpg_multipliers_reference(prior, k)


@given(prior_and_knowledge(), st.data())
@settings(max_examples=200, deadline=None)
def test_marginals_equal_per_call_sums(case, data):
    prior, k = case
    order = data.draw(st.permutations(range(prior.n)))
    for i in order:
        assert prior.marginal(k, i) == marginal_reference(prior, k, i)


@given(prior_and_knowledge(), st.data())
@settings(max_examples=200, deadline=None)
def test_revelation_branches_equal_pattern_sums(case, data):
    prior, k = case
    model = star_model(prior)
    ssp = CompiledSsp(model)
    revealed = data.draw(st.integers(1, (1 << prior.n) - 1)) & k.unknown_mask
    if not revealed:
        return
    got = [(ssp._kvs[kid], q) for kid, q in ssp._revelation_branches(ssp._kid_of(k), revealed)]
    assert got == revelation_reference(prior, k, revealed)


@given(priors(), st.data())
@settings(max_examples=200, deadline=None)
def test_sampling_equals_running_sum_walk(prior, data):
    acc, boundaries = 0.0, []
    for p in prior.config_probs().values():
        acc += p
        boundaries.append(acc)
    # draws at every running sum, at and just above the final one, and anywhere
    draws = boundaries + [acc, acc + 1e-12, 1.0 - 2 ** -53, 0.0]
    draws += data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    for u in draws:
        assert prior.config_at(u) == sample_config_reference(prior, u)
    model = star_model(prior)
    for u in draws:
        assert model.sample_config(SimpleNamespace(random=lambda u=u: u)) == \
            sample_config_reference(prior, u)


def test_multiplier_scan_stops_once_every_goal_is_covered():
    # equal masses: the full consistent configuration comes first and
    # covers every possible goal, so no other posterior entry is read
    prior = GoalPrior.uniform(6)
    k = KnowledgeVector(6, yes=0b000001, no=0b000010)
    masks, probs = prior.posterior(k)
    reads = []

    class CountingMasks(list):
        def __getitem__(self, j):
            reads.append(j)
            return super().__getitem__(j)

    prior.posterior = lambda _k: (CountingMasks(masks), probs)
    assert hpg_for(prior)._multipliers(k) == hpg_multipliers_reference(prior, k)
    assert [masks[j] for j in reads] == [0b111101]


@given(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]) | st.floats(0.01, 1.0),
                min_size=1, max_size=MAX_N))
@settings(max_examples=200, deadline=None)
def test_bernoulli_masses_equal_per_mask_products(marginals):
    # a marginal of 1.0 zeroes every mask without its goal
    got = GoalPrior.bernoulli(marginals).config_probs()
    assert list(got.items()) == list(bernoulli_reference(marginals).items())


def knowledge_at_14():
    """Knowledge vectors on 14 goals: all unknown, a few goals confirmed
    either way, and all but two goals known."""
    return [
        KnowledgeVector(14),
        KnowledgeVector(14, yes=0b1, no=0b10),
        KnowledgeVector(14, no=0b1011_0000_0000_01),
        KnowledgeVector(14, yes=0b0100_0001_0000_00, no=0b0010_0000_0010_01),
        KnowledgeVector(14, yes=0b1, no=0b1111_1111_1111_00),
    ]


@pytest.mark.parametrize("prior", [
    GoalPrior.uniform(14),
    GoalPrior.bernoulli([0.69 - 0.03 * i for i in range(14)]),
], ids=["uniform", "bernoulli"])
def test_queries_at_fourteen_goals_equal_the_references(prior):
    ssp = CompiledSsp(star_model(prior))
    hpg = hpg_for(prior)
    for k in knowledge_at_14():
        masks, probs = prior.posterior(k)
        expected = posterior_reference(prior, k)
        assert list(masks) == list(expected)
        assert list(probs) == list(expected.values())

        marginals = [prior.marginal(k, i) for i in range(14)]
        assert marginals == [marginal_reference(prior, k, i) for i in range(14)]
        assert all(type(p) is float for p in marginals)

        mult = hpg._multipliers(k)
        assert mult == hpg_multipliers_reference(prior, k)
        assert all(type(m) is float for m in mult)

        for revealed in (k.unknown_mask & 0b11, k.unknown_mask & 0b1001_0100_0000_00,
                         k.unknown_mask):
            got = ssp._revelation_branches(ssp._kid_of(k), revealed)
            assert [(ssp._kvs[kid], q) for kid, q in got] == revelation_reference(prior, k, revealed)
            assert all(type(q) is float for _kid, q in got)


def test_building_every_bundled_instance_leaves_numpy_unimported():
    # the queries import numpy at their first cache miss; set-up never does
    script = """
import sys
from pathlib import Path
from gussp.domains import PriorSpec, build_grid, load_instance, random_grid
for path in sorted(Path(sys.argv[1]).glob("*.txt")):
    load_instance(str(path))
build_grid(random_grid(0, width=12, height=12, n_goals=14,
                       prior=PriorSpec("bernoulli", marginals=(0.5,) * 14)))
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", script, str(ROOT / "instances")],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def star_model(prior):
    """A hub with one spoke per potential goal; only the prior matters here."""
    goals = [f"g{i}" for i in range(prior.n)]
    return GusspModel(
        base_states=["hub"] + goals,
        actions=goals,
        transition=lambda s, a: [(a, 1.0)],
        cost=lambda s, a: 1.0,
        start_state="hub",
        potential_goals=goals,
        prior=prior,
    )
