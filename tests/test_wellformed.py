"""Well-formedness of types, contexts, and environments."""

import pytest

from polarf import (
    Arrow, BVar, Context, Data, Down, EVar, Forall, Return, Solved, TypeEnv,
    UVar, Universal, Unsolved, Up, Var, parse_type, subtype_neg, subtype_pos,
    synth_computation, synth_spine, synth_value, wf_context, wf_env, wf_type,
)

T = parse_type


class TestWfType:
    def test_bound_uvar(self):
        assert wf_type(Context((Universal("a"),)), UVar("a"))

    def test_unbound_uvar(self):
        assert not wf_type(Context(), UVar("a"))

    def test_tracked_evar(self):
        theta = Context((Unsolved("?a"),))
        assert wf_type(theta, Arrow(EVar("?a"), Up(EVar("?a"))))
        assert wf_type(theta, EVar("?a"))

    def test_untracked_evar(self):
        assert not wf_type(Context(), EVar("?a"))

    def test_solved_evar_still_in_scope(self):
        theta = Context((Solved("?a", Data("Int", ())),))
        assert wf_type(theta, EVar("?a"))

    def test_forall_binds_its_variable(self):
        assert wf_type(Context(), T("forall a. a -> up a", "-"))
        assert not wf_type(Context(), T("a -> up a", "-"))


    def test_bound_variable_needs_its_binder(self):
        assert wf_type(Context(), Forall.bind("a", Up(BVar(0))))
        assert wf_type(Context(), Forall.bind("a", Forall.bind("b", Up(BVar(1)))))
        assert not wf_type(Context(), BVar(0))
        assert not wf_type(Context(), Up(BVar(0)))
        assert not wf_type(Context(), Forall.bind("a", Up(BVar(1))))
        assert not wf_type(Context(), Down(Forall.bind("a", Arrow(BVar(0), Up(BVar(2))))))

    def test_entry_points_refuse_a_bound_variable_without_binder(self):
        dangling = Up(BVar(0))
        ground = Up(Data("Int", ()))
        with pytest.raises(ValueError):
            subtype_pos(Context(), BVar(0), BVar(0))
        with pytest.raises(ValueError):
            subtype_neg(Context(), dangling, ground)
        with pytest.raises(ValueError):
            subtype_neg(Context(), ground, dangling)
        with pytest.raises(ValueError):
            synth_spine(Context(), TypeEnv(), (), dangling)
        env = TypeEnv((("x", Down(dangling)),))
        with pytest.raises(ValueError):
            synth_value(Context(), env, Var("x"))
        with pytest.raises(ValueError):
            synth_computation(Context(), env, Return(Var("x")))
        assert not wf_context(Context((Solved("?x", BVar(0)),)))

class TestWfContext:
    def test_solution_wf_in_prefix(self):
        theta = Context((Universal("a"),
                         Solved("?x", T("dn (forall b. b -> up b)", "+"))))
        assert wf_context(theta)

    def test_solution_may_use_earlier_universals(self):
        theta = Context((Universal("a"), Solved("?x", UVar("a"))))
        assert wf_context(theta)

    def test_solution_may_not_use_later_universals(self):
        theta = Context((Solved("?x", UVar("a")), Universal("a")))
        assert not wf_context(theta)

    def test_solution_must_be_ground(self):
        assert not wf_context(Context((Unsolved("?b"),
                                       Solved("?a", EVar("?b")))))

    def test_duplicate_names(self):
        assert not wf_context(Context((Universal("a"), Universal("a"))))

    def test_empty(self):
        assert wf_context(Context())


class TestWfEnv:
    def test_ground_binding(self):
        assert wf_env(Context(), TypeEnv((("x", Data("Int", ())),)))

    def test_evar_binding_rejected(self):
        theta = Context((Unsolved("?a"),))
        assert not wf_env(theta, TypeEnv((("x", EVar("?a")),)))

    def test_binding_uses_context_universal(self):
        theta = Context((Universal("a"),))
        env = TypeEnv((("x", Down(Arrow(UVar("a"), Up(UVar("a"))))),))
        assert wf_env(theta, env)
        assert not wf_env(Context(), env)
