import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gussp.errors import (
    ContradictoryObservation,
    InconsistentKnowledge,
    InvalidInstance,
    ModelError,
    TooManyGoals,
)
from gussp.model import (
    GoalPrior,
    GusspModel,
    KnowledgeVector,
    Observation,
    Status,
    apply_observation,
    bits_of,
    observe,
    step_world,
)
from gussp.harness import CellSpec, run_cell
from gussp.harness_types import run_episode
from oracles import (
    config_labels, is_consistent_with, observation_from_pairs, statuses, step_cost,
)


def disjoint_masks(n):
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    ).map(lambda t: (t[0] & ~t[1], t[1]))


class TestKnowledgeVector:
    def test_string_form(self):
        k = KnowledgeVector(3, yes=0b001, no=0b100)
        assert str(k) == "GUN"
        assert statuses(k) == (
            Status.CONFIRMED_GOAL,
            Status.UNKNOWN,
            Status.CONFIRMED_NOT_GOAL,
        )

    def test_overlap_rejected(self):
        with pytest.raises(ContradictoryObservation):
            KnowledgeVector(2, yes=0b01, no=0b01)

    def test_confirm_merges_and_conflicts(self):
        k = KnowledgeVector(3)
        k2 = k.confirm(yes=0b001)
        assert k2.unknown_mask == 0b110
        with pytest.raises(ContradictoryObservation):
            k2.confirm(no=0b001)

    def test_collapsed_matches_config(self):
        k = KnowledgeVector.collapsed(4, 0b1010)
        assert k.yes == 0b1010 and k.no == 0b0101 and k.unknown_mask == 0

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), disjoint_masks(n), disjoint_masks(n))
    ))
    def test_confirm_monotone(self, case):
        n, (y1, n1), (y2, n2) = case
        k = KnowledgeVector(n, y1, n1)
        if (y2 & k.no) or (n2 & k.yes):
            with pytest.raises(ContradictoryObservation):
                k.confirm(yes=y2, no=n2)
            return
        k2 = k.confirm(yes=y2, no=n2)
        # knowledge only grows
        assert k2.yes & k.yes == k.yes
        assert k2.no & k.no == k.no
        assert k2.unknown_mask & ~k.unknown_mask == 0

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, (1 << n) - 1), disjoint_masks(n))
    ))
    def test_consistency_definition(self, case):
        n, g, (y, no) = case
        k = KnowledgeVector(n, y, no)
        expected = all(
            (k.status_of(i) is not Status.CONFIRMED_GOAL or g & (1 << i))
            and (k.status_of(i) is not Status.CONFIRMED_NOT_GOAL or not g & (1 << i))
            for i in range(n)
        )
        assert is_consistent_with(k, g) == expected


class TestObservation:
    def test_string_and_pairs(self):
        obs = observation_from_pairs({0: True, 2: False})
        assert str(obs) == "0:T,2:F"
        assert obs.revealed == {0: True, 2: False}
        assert str(Observation()) == "-"
        assert Observation().is_empty


class TestGoalPrior:
    def test_uniform_masses(self):
        prior = GoalPrior.uniform(2)
        assert prior.config_probs() == {
            0b01: pytest.approx(1 / 3),
            0b10: pytest.approx(1 / 3),
            0b11: pytest.approx(1 / 3),
        }

    def test_explicit_normalizes_and_validates(self):
        prior = GoalPrior.explicit(2, {0b01: 3.0, 0b10: 1.0})
        assert prior.config_probs()[0b01] == pytest.approx(0.75)
        with pytest.raises(InvalidInstance):
            GoalPrior.explicit(2, {0: 1.0})
        with pytest.raises(InvalidInstance):
            GoalPrior.explicit(2, {0b01: -1.0})
        with pytest.raises(InvalidInstance):
            GoalPrior.explicit(2, {0b01: 0.0})

    def test_explicit_rejects_non_finite_weights(self):
        for w in (math.nan, math.inf):
            with pytest.raises(InvalidInstance, match="is not finite"):
                GoalPrior.explicit(2, {0b01: w, 0b10: 1.0})

    def test_bernoulli_conditions_on_nonempty(self):
        prior = GoalPrior.bernoulli([0.5, 0.5])
        probs = prior.config_probs()
        assert sum(probs.values()) == pytest.approx(1.0)
        assert 0 not in probs
        # each nonempty mask has raw mass 1/4, renormalized by 3/4
        assert probs[0b01] == pytest.approx(1 / 3)

    def test_bernoulli_range(self):
        with pytest.raises(InvalidInstance):
            GoalPrior.bernoulli([0.0, 0.5])

    def test_too_many_goals(self):
        with pytest.raises(TooManyGoals):
            GoalPrior.uniform(17)

    def test_posterior_line4_anchor(self):
        prior = GoalPrior.uniform(2)
        k = KnowledgeVector(2)
        assert prior.marginal(k, 0) == pytest.approx(2 / 3)
        k_no0 = k.confirm(no=0b01)
        assert dict(zip(*prior.posterior(k_no0))) == {0b10: pytest.approx(1.0)}
        assert prior.marginal(k_no0, 1) == 1.0

    def test_constructors_keep_masks_increasing(self):
        # the posterior's submask walk relies on this order
        for prior in (
            GoalPrior.uniform(4),
            GoalPrior.bernoulli([0.3, 1.0, 0.5, 0.9]),
            GoalPrior.explicit(4, {0b1100: 1.0, 0b0101: 0.5, 0b0011: 2.0, 0b1000: 0.0}),
        ):
            masks = list(prior.config_probs())
            assert masks == sorted(masks)

    def test_posterior_inconsistent(self):
        prior = GoalPrior.explicit(2, {0b01: 1.0})
        with pytest.raises(InconsistentKnowledge):
            prior.posterior(KnowledgeVector(2, no=0b01))

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.floats(min_value=0.05, max_value=1.0),
                    min_size=n, max_size=n,
                ),
                disjoint_masks(n),
            )
        )
    )
    def test_posterior_is_conditional(self, case):
        n, marginals, (yes, no) = case
        prior = GoalPrior.bernoulli(marginals)
        k = KnowledgeVector(n, yes, no)
        try:
            post = dict(zip(*prior.posterior(k)))
        except InconsistentKnowledge:
            # only possible when knowledge excludes every configuration
            assert all(not is_consistent_with(k, g) for g in prior.config_probs())
            return
        assert sum(post.values()) == pytest.approx(1.0)
        for g in post:
            assert is_consistent_with(k, g)
        # conditional proportionality against the raw prior
        raw = prior.config_probs()
        z = sum(p for g, p in raw.items() if is_consistent_with(k, g))
        for g, p in post.items():
            assert p == pytest.approx(raw[g] / z)


def tiny_model(**overrides):
    """Three cells in a row, two potential goals, fully deterministic."""
    states = [0, 1, 2]

    def transition(s, a):
        if a == "fwd":
            return ((min(s + 1, 2), 1.0),)
        return ((max(s - 1, 0), 1.0),)

    kwargs = dict(
        base_states=states,
        actions=("fwd", "back"),
        transition=transition,
        cost=lambda s, a: 1.0,
        start_state=0,
        potential_goals=(1, 2),
        prior=GoalPrior.uniform(2),
    )
    kwargs.update(overrides)
    return GusspModel(**kwargs)


class TestModelValidation:
    def test_ok(self):
        m = tiny_model()
        assert m.n_goals == 2

    def test_goal_not_a_state(self):
        with pytest.raises(InvalidInstance):
            tiny_model(potential_goals=(1, 7))

    def test_duplicate_goals(self):
        with pytest.raises(InvalidInstance):
            tiny_model(potential_goals=(1, 1))

    def test_start_must_not_reveal(self):
        with pytest.raises(InvalidInstance):
            tiny_model(start_state=1)
        with pytest.raises(InvalidInstance):
            tiny_model(landmarks={0: (1,)})

    def test_row_sum_checked(self):
        with pytest.raises(ModelError):
            tiny_model(transition=lambda s, a: ((s, 0.5),))

    def test_negative_cost_checked(self):
        with pytest.raises(ModelError):
            tiny_model(cost=lambda s, a: -1.0)

    def test_non_finite_cost_checked(self):
        for c in (math.nan, math.inf):
            with pytest.raises(ModelError, match="is not finite"):
                tiny_model(cost=lambda s, a, c=c: c)

    def test_nan_probability_checked(self):
        with pytest.raises(ModelError, match="sums to nan"):
            tiny_model(transition=lambda s, a: ((s, 1.0), (min(s + 1, 2), math.nan)))

    @pytest.mark.parametrize("row, message", [
        (((1, 1.0), (2, -0.5)), "negative probability in row"),
        (((1, 1.0), (2, math.nan)), "sums to nan"),
        (((1, 1.0), (99, 0.0)), "successor 99 .* is not a base state"),
    ], ids=["negative", "nan", "zero-to-non-base"])
    def test_hook_row_checked_as_base_rows_are(self, row, message):
        m = tiny_model(knowledge_effects=lambda s, a, k: row if s == 0 else None)
        with pytest.raises(ModelError, match=message):
            run_cell(m, CellSpec("tiny", "vi", trials=5))
        with pytest.raises(ModelError, match=message):
            step_world(m, 0, "fwd", 0b11, m.collapsed_knowledge(0b11), random.Random(0))

    @pytest.mark.parametrize("c", [-3.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_hook_cost_checked_where_read(self, c):
        m = tiny_model(knowledge_step_cost=lambda s, a, k: c)
        message = "negative cost" if c < 0 else "is not finite"
        with pytest.raises(ModelError, match=message):
            run_cell(m, CellSpec("tiny", "vi", trials=5))
        with pytest.raises(ModelError, match=message):
            step_world(m, 0, "fwd", 0b11, m.collapsed_knowledge(0b11), random.Random(0))
        with pytest.raises(ModelError, match=message):
            run_episode(m, 0b11, random.Random(0), lambda s, k: "fwd",
                        step_budget=10, collect_trace=False)

    @pytest.mark.parametrize("c", [-3.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_terminal_cost_checked_as_model_is_built(self, c):
        message = "negative cost at terminal state 0" if c < 0 else "at terminal state 0 is not"
        with pytest.raises(ModelError, match=message):
            tiny_model(terminal_cost=lambda s: c)

    def test_zero_cost_needs_optin(self):
        with pytest.raises(ModelError):
            tiny_model(cost=lambda s, a: 0.0)
        m = tiny_model(cost=lambda s, a: 0.0, allow_zero_costs=True)
        assert step_cost(m, 0, "fwd") == 0.0

    def test_landmark_validation(self):
        m = tiny_model(landmarks={1: (2,)})
        assert m.reveal_indices(1) == 0b11  # own membership plus vicinity
        with pytest.raises(InvalidInstance):
            tiny_model(landmarks={9: (2,)})
        with pytest.raises(InvalidInstance):
            tiny_model(landmarks={1: (0,)})  # 0 is not a potential goal
        with pytest.raises(InvalidInstance):
            tiny_model(landmarks={1: ()})

    def test_config_mask_roundtrip(self):
        m = tiny_model()
        assert m.config_mask((1, 2)) == 0b11
        assert config_labels(m, 0b10) == frozenset({2})
        assert m.config_mask(0b01) == 0b01  # ints pass through

    def test_prior_size_mismatch(self):
        with pytest.raises(InvalidInstance):
            tiny_model(prior=GoalPrior.uniform(3))


class TestObserveAndStep:
    def test_observe_membership(self):
        m = tiny_model()
        obs = observe(m, 1, (1,))
        assert obs.yes == 0b01 and obs.no == 0
        obs2 = observe(m, 1, (2,))
        assert obs2.yes == 0 and obs2.no == 0b01
        assert observe(m, 0, (1,)).is_empty

    def test_observe_landmark(self):
        m = tiny_model(landmarks={1: (2,)})
        obs = observe(m, 1, (2,))
        assert obs.revealed == {0: False, 1: True}

    def test_apply_observation(self):
        k = KnowledgeVector(2)
        k2 = apply_observation(k, Observation(yes=0b01))
        assert str(k2) == "GU"
        assert apply_observation(k2, Observation()) is k2

    @given(st.integers(min_value=0, max_value=10_000))
    def test_knowledge_always_consistent_with_truth(self, seed):
        m = tiny_model()
        rng = random.Random(seed)
        g = m.sample_config(rng)
        k = m.knowledge_all_unknown()
        k_true = m.collapsed_knowledge(g)
        s = m.start_state
        for _ in range(6):
            a = rng.choice(m.actions)
            s, _cost, obs = step_world(m, s, a, g, k_true, rng)
            k = apply_observation(k, obs)
            assert is_consistent_with(k, g)

    def test_sample_config_distribution(self):
        m = tiny_model()
        rng = random.Random(7)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(3000):
            counts[m.sample_config(rng)] += 1
        for mask in counts:
            assert counts[mask] / 3000 == pytest.approx(1 / 3, abs=0.05)


def test_bits_of():
    assert list(bits_of(0b1011)) == [0, 1, 3]
    assert list(bits_of(0)) == []
