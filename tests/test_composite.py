"""Iterated composite-derivative operator, its shared cache and the reverse direction."""

import contextlib
import gc
import hashlib
import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import funcseries.composite as composite
from funcseries import CATALOG
from funcseries.composite import (
    OperatorChain,
    cached_chain,
    composite_derivative,
    ladder_cache_info,
    z_derivative_via_s,
)
from funcseries.errors import ConstantComposite, SingularEvaluation
from funcseries.expr import (
    add,
    const,
    differentiate,
    divide,
    evaluate,
    format_expr,
    parse,
    simplify,
    substitute,
)
from funcseries.series import ExpansionRequest, expand, inverse_composite_expand

RNG = np.random.default_rng(907)

#: one drawn member of each benchmark family, as (f, s)
FAMILY_PAIRS = (
    ("1/((7/3)+z)", "sin(z)"),
    ("1/(1-(5/2)^(1-z))", "(5/2)^(-z)"),
    ("(7/2)^(-z)", "(3/2)^(-z)"),
    ("1/((9/4)+z)", "exp(z)"),
    ("exp((5/3)*z)", "exp(z)"),
    ("exp((3/2)*z)", "sin(z)"),
    ("cos((5/2)*z)", "sinh(z)"),
    ("1/(z-(7/2))^2", "1/(z-(7/2))"),
    ("exp(3*z)", "z+2*z^2"),
)

#: sha256 of repr(entry) + "\n" over entries 0..9 of every FAMILY_PAIRS pair
FAMILY_LADDER_SHA256 = "595682b9167aa6e45ae822c371c714879a5a47967343d13a3d7217972c42f71c"

#: sha256 of the text of ladder entries 0..9 of every CATALOG pair
LADDER_TEXT_SHA256 = {
    "rational-in-sine": "cb9b6790fc66cb9c8d9cbdc6a5c4a5a378af36ba793561e777db089823fcb4fd",
    "binomial-family": "6404541fc7f166494ff76c136d4c2e530812883d29553334ef446d87d43d32d6",
    "power-8-in-2": "bd5b6707e3e502337e02adc3bdfa506aa842ad670575d06d3648bfc5f6a88d02",
    "power-9-in-3": "1162aff164e1a74b9fa1509ba630d20c193712189d95e014a8668dcf2ffd74f0",
    "power-5-in-2": "6e18613b625fdf84e246e76c53429f47664404b9cc7a4a5dcb976d24a28b5fb5",
    "degenerate-rational": "d331f4a20a5354090b3ca47374f8df2943f254a062c539925cf8e36206b5046e",
    "square-of-exponential":
        "61841bc01cb8d4315e26134355f13d10fcb1cba289c5f4997f486334f3a22982",
}

#: inner functions paired with sample points where they are well-behaved
INNERS = {
    "exp(z)": [0.0, 0.3, -0.4, 0.2 + 0.1j],
    "sin(z)": [0.0, 0.4, -0.3, 0.1 - 0.2j],
    "1/(z-2)": [0.0, 0.5, -1.0, 0.3 + 0.4j],
}


def central_difference(e, z, n, h=1e-5):
    """n'th derivative by repeated central differences (n <= 2 only)."""
    if n == 0:
        return evaluate(e, z)
    if n == 1:
        return (evaluate(e, z + h) - evaluate(e, z - h)) / (2 * h)
    return (evaluate(e, z + h) - 2 * evaluate(e, z) + evaluate(e, z - h)) / h**2


class TestSingleApplication:
    def test_square_of_inner(self):
        # f = exp(2z) is s^2 for s = exp(z); d(s^2)/ds = 2s = 2 exp(z)
        got = composite_derivative(parse("exp(2*z)"), parse("exp(z)"), 1)
        want = parse("2*exp(z)")
        for z in (0.0, 0.5, -0.3):
            assert evaluate(got, z) == pytest.approx(evaluate(want, z), rel=1e-12)

    def test_inner_with_itself(self):
        s = parse("sin(z)")
        assert composite_derivative(s, s, 1) == const(1)

    def test_constant_numerator(self):
        assert composite_derivative(const(5), parse("sin(z)"), 1) == const(0)

    def test_constant_inner_rejected(self):
        with pytest.raises(ConstantComposite):
            composite_derivative(parse("exp(z)"), const(3), 1)


class TestChain:
    def test_entries_match_defining_recurrence(self):
        f, s = parse("1/(1+z)"), parse("sin(z)")
        chain = OperatorChain(f, s)
        for i in range(4):
            want = simplify(divide(differentiate(chain.entry(i)), differentiate(s)))
            assert chain.entry(i + 1) == want

    def test_sprime_is_simplified_once_on_the_chain(self):
        s = parse("sin(z)*exp(z)")
        chain = OperatorChain(parse("1/(1+z)"), s)
        assert chain.sprime == simplify(differentiate(s))

    def test_cache_returns_identical_objects(self):
        f, s = parse("exp(2*z)"), parse("exp(z)")
        chain = OperatorChain(f, s)
        high = chain.entry(5)
        assert chain.entry(3) is chain.entry(3)
        assert chain.entry(5) is high

    def test_fresh_chain_reproduces_structurally(self):
        f, s = parse("1/(1+z)"), parse("sin(z)")
        a = composite_derivative(f, s, 3)
        b = composite_derivative(f, s, 3)
        assert a == b

    @pytest.mark.parametrize("label,f_text,s_text,z0", CATALOG)
    def test_ladder_text_matches_recorded_digest(self, label, f_text, s_text, z0):
        # sha256 of format_expr of entries 0..9, one per line; any change to
        # how the simplifier shapes a ladder entry moves these digests
        chain = OperatorChain(parse(f_text), parse(s_text))
        text = "\n".join(format_expr(chain.entry(n)) for n in range(10))
        assert hashlib.sha256(text.encode()).hexdigest() == LADDER_TEXT_SHA256[label]

    def test_family_ladders_match_recorded_digest(self):
        # the trees themselves, not their text, of entries 0..9 of one
        # member of each benchmark family
        digest = hashlib.sha256()
        for f_text, s_text in FAMILY_PAIRS:
            chain = OperatorChain(parse(f_text), parse(s_text))
            for n in range(10):
                digest.update((repr(chain.entry(n)) + "\n").encode())
        assert digest.hexdigest() == FAMILY_LADDER_SHA256


def distinct_subtrees(*trees):
    """Every node of the trees once, shared subtrees included once."""
    seen, stack = {}, list(trees)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.args)
    return list(seen.values())


LADDER_PAIRS = [(f, s) for _, f, s, _ in CATALOG] + list(FAMILY_PAIRS)


class TestSeededEntries:
    """OperatorChain.entry passes the previous entry and sprime to
    simplify as already simplified; that holds only if every subtree of
    a simplified tree is its own simplified form."""

    @pytest.mark.parametrize("f_text,s_text", LADDER_PAIRS)
    def test_every_subtree_of_entries_1_to_10_is_a_fixed_point(self, f_text, s_text):
        chain = OperatorChain(parse(f_text), parse(s_text))
        entries = [chain.entry(n) for n in range(1, 11)]
        for t in distinct_subtrees(chain.sprime, *entries):
            assert repr(simplify(t)) == repr(t), format_expr(t)

    def test_entry_0_is_not_a_fixed_point_so_it_is_no_seed(self):
        f = parse("1/(1+z)")
        assert repr(simplify(f)) != repr(OperatorChain(f, parse("sin(z)")).entry(0))

    @pytest.mark.parametrize("f_text,s_text", LADDER_PAIRS)
    def test_seeds_change_no_entry(self, f_text, s_text):
        chain = OperatorChain(parse(f_text), parse(s_text))
        for n in range(10):
            step = divide(differentiate(chain.entry(n), chain.letter), chain.sprime)
            assert repr(simplify(step)) == repr(chain.entry(n + 1)), n


class TestCompositeDerivative:
    def test_second_derivative_of_square_is_two(self):
        got = composite_derivative(parse("exp(2*z)"), parse("exp(z)"), 2)
        for z in (0.0, 0.4, -0.2, 0.1 + 0.3j):
            assert evaluate(got, z) == pytest.approx(2.0, rel=1e-10)

    def test_zero_order_returns_input(self):
        f = parse("cos(z)*exp(z)")
        assert composite_derivative(f, parse("sin(z)"), 0) is f

    def test_first_coefficient_of_rational_in_sine(self):
        got = composite_derivative(parse("1/(1+z)"), parse("sin(z)"), 1)
        assert evaluate(got, 0) == pytest.approx(-1.0, abs=1e-14)

    def test_a_ladder_whose_coefficient_overflows_is_a_singularity(self):
        # with s' = 2^-300 each entry's coefficient grows by 2^300; entry 5's
        # folds to inf, which simplify does not keep
        with pytest.raises(SingularEvaluation, match="^constant out of floating-point range: inf$"):
            composite_derivative(parse("0.5*exp(z)"), parse("z/2^300"), 6)

    @pytest.mark.parametrize("s_text", sorted(INNERS))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_monomials_in_inner_give_falling_factorials(self, s_text, m):
        # f = s^m: d^n f/ds^n = m!/(m-n)! s^(m-n) for n <= m, 0 beyond
        s = parse(s_text)
        f = simplify(s**m)
        for n in range(m + 3):
            e_n = composite_derivative(f, s, n)
            for p in INNERS[s_text]:
                sval = evaluate(s, p)
                if n <= m:
                    want = math.factorial(m) / math.factorial(m - n) * sval ** (m - n)
                else:
                    want = 0.0
                got = evaluate(e_n, p)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (s_text, m, n, p)


class TestReverseDirection:
    def test_square_of_exponential(self):
        got = z_derivative_via_s(parse("s^2"), parse("exp(z)"), 1)
        want = parse("2*exp(2*z)")
        for z in (0.0, 0.3, -0.5):
            assert evaluate(got, z) == pytest.approx(evaluate(want, z), rel=1e-12)

    def test_identity_outer_gives_inner_derivative(self):
        for s_text in INNERS:
            s = parse(s_text)
            got = z_derivative_via_s(parse("s"), s, 1)
            want = simplify(differentiate(s))
            for p in (0.0, 0.4):
                assert evaluate(got, p) == pytest.approx(evaluate(want, p), rel=1e-12)

    def test_cubed_sine_second_derivative_matches_differences(self):
        got = z_derivative_via_s(parse("s^3"), parse("sin(z)"), 2)
        z = 0.4
        want = central_difference(parse("sin(z)^3"), z, 2)
        assert abs(evaluate(got, z) - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("s_text", sorted(INNERS))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_agrees_with_direct_differentiation(self, s_text, m):
        s = parse(s_text)
        k = parse("s") ** m
        for n in range(5):
            via_s = z_derivative_via_s(simplify(k), s, n)
            direct = substitute(simplify(k), "s", s)
            for _ in range(n):
                direct = simplify(differentiate(direct))
            for p in INNERS[s_text]:
                want = evaluate(direct, p)
                got = evaluate(via_s, p)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (s_text, m, n, p)

    def test_rejects_stray_variables(self):
        with pytest.raises(ValueError):
            z_derivative_via_s(parse("w^2"), parse("exp(z)"), 1)

    def test_rejects_constant_inner(self):
        with pytest.raises(ConstantComposite):
            z_derivative_via_s(parse("s"), const(2), 1)


@contextlib.contextmanager
def fast_switching():
    """Switch threads every 10 us, so races show within a short test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def ladders(monkeypatch):
    """An empty chain cache in place of the process-wide one."""
    cache = composite._LadderCache()
    monkeypatch.setattr(composite, "_LADDERS", cache)
    return cache


def counted_nodes(f, s, n):
    """Nodes a cache of its own counts for the ladder of (f, s) to entry n."""
    cache = composite._LadderCache()
    cache.chain(f, s).entry(n)
    return cache.info().nodes


def distinct_nodes(e):
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.args)
    return len(seen)


def tree_nodes(e):
    return 1 + sum(tree_nodes(a) for a in e.args)


def coefficient_bits(exp):
    return [(c.real.hex(), c.imag.hex()) for c in exp.coefficients]


class TestLadderCache:
    def test_repeated_pair_shares_one_chain(self, ladders):
        f, s = parse("1/(1+z)"), parse("sin(z)")
        first = cached_chain(f, s)
        assert cached_chain(parse("1/(1+z)"), parse("sin(z)")) is first
        assert ladder_cache_info() == (1, 1, 1, counted_nodes(f, s, 0))

    def test_expansions_of_a_pair_share_the_ladder(self, ladders):
        f, s = parse("exp(2*z)"), parse("exp(z)")
        low = expand(ExpansionRequest(f, s, 0.0, 3))
        high = expand(ExpansionRequest(f, s, 0.4, 5))
        assert high.chain is low.chain and len(low.chain) == 6
        assert inverse_composite_expand(f, s, parse("log(w)"), 0.1, 2).chain is low.chain
        assert composite_derivative(f, s, 4) is low.chain.entry(4)
        assert ladder_cache_info().hits == 3

    @pytest.mark.parametrize("fa,fb", [
        (parse("exp(2*z)"), parse("exp(2.0*z)")),
        (const(0.0), const(-0.0)),
    ], ids=["int-float", "signed-zero"])
    def test_pairs_equal_as_trees_get_separate_ladders(self, ladders, fa, fb):
        # Expr equality merges 2 with 2.0 and 0.0 with -0.0; the ladders do not
        s = parse("sin(z)")
        assert fa == fb
        one, two = cached_chain(fa, s), cached_chain(fb, s)
        assert one is not two
        for chain, f in ((one, fa), (two, fb)):
            fresh = OperatorChain(f, s)
            assert [repr(chain.entry(n)) for n in range(4)] == \
                [repr(fresh.entry(n)) for n in range(4)]
        assert repr(one.entry(0)) != repr(two.entry(0))

    def test_integer_and_float_ladders_print_differently(self, ladders):
        s = parse("sin(z)")
        text = [format_expr(cached_chain(parse(f), s).entry(3))
                for f in ("exp(2*z)", "exp(2.0*z)")]
        assert text[0].startswith("(10*exp(2*z)") and "." not in text[0]
        assert text[1].startswith("(10.0*exp(2.0*z)")

    @pytest.mark.parametrize("label,f_text,s_text,z0", CATALOG)
    def test_warm_expansion_is_bit_identical_to_a_fresh_chain(
            self, ladders, label, f_text, s_text, z0):
        req = ExpansionRequest(parse(f_text), parse(s_text), z0, 8)
        cold = expand(req)
        warm = expand(ExpansionRequest(parse(f_text), parse(s_text), z0, 8))
        assert warm.chain is cold.chain
        fresh = OperatorChain(parse(f_text), parse(s_text))
        want = [(evaluate(fresh.entry(n), z0) / math.factorial(n)) for n in range(9)]
        assert coefficient_bits(cold) == coefficient_bits(warm)
        assert coefficient_bits(warm) == [(c.real.hex(), c.imag.hex()) for c in want]

    def test_node_budget_and_lru_eviction(self, ladders, monkeypatch):
        s = parse("sin(z)")
        pairs = [parse(f"1/({a}+z)") for a in (2, 3, 4)]
        sizes = [counted_nodes(f, s, 3) for f in pairs]
        # room for two of the three ladders, not three
        monkeypatch.setattr(composite, "LADDER_CACHE_NODES", sizes[0] + sizes[1] + 1)
        a, b = (cached_chain(f, s) for f in pairs[:2])
        a.entry(3), b.entry(3)
        assert ladder_cache_info()[2:] == (2, sizes[0] + sizes[1])
        assert cached_chain(parse("1/(2+z)"), s) is a  # a is now the most recent
        c = cached_chain(pairs[2], s)
        c.entry(3)
        info = ladder_cache_info()
        assert info.ladders == 2 and info.nodes == sizes[0] + sizes[2]
        assert info.nodes <= composite.LADDER_CACHE_NODES
        assert cached_chain(parse("1/(2+z)"), s) is a
        assert cached_chain(parse("1/(3+z)"), s) is not b  # b was least recent

    def test_a_counted_node_costs_at_most_200_bytes(self, ladders):
        # LADDER_CACHE_NODES is a memory budget only through this figure
        # (README quotes it in MB): a change to the node layout must
        # revisit the budget rather than silently move its cost
        tracemalloc.start()
        try:
            for _, f_text, s_text, _ in CATALOG:
                cached_chain(parse(f_text), parse(s_text)).entry(10)
            nodes = ladder_cache_info().nodes
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            ladders._chains.clear()
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert nodes == 1962
        assert 0 < freed / nodes <= 200

    def test_ladder_larger_than_the_budget_is_not_kept(self, ladders, monkeypatch):
        s = parse("sin(z)")
        assert counted_nodes(parse("1/(1+z)"), s, 8) > 200
        monkeypatch.setattr(composite, "LADDER_CACHE_NODES", 200)
        big = cached_chain(parse("1/(1+z)"), s)
        small = cached_chain(parse("z"), parse("exp(z)"))
        big.entry(8)
        assert ladder_cache_info()[2:] == (1, 1)  # only small's entry 0, z
        assert cached_chain(parse("1/(1+z)"), s) is not big
        assert cached_chain(parse("z"), parse("exp(z)")) is small
        assert len(big) == 9  # the caller's chain still works

    @pytest.mark.parametrize("f_text,s_text,error", [
        ("exp(z)", "3", ConstantComposite),
        ("w^2", "sin(z)", ValueError),
    ], ids=["constant-inner", "mixed-variables"])
    def test_failed_build_is_not_cached(self, ladders, f_text, s_text, error):
        for _ in range(2):
            with pytest.raises(error):
                cached_chain(parse(f_text), parse(s_text))
        assert ladder_cache_info() == (0, 2, 0, 0)

    def test_singular_entry_is_raised_again(self, ladders):
        # entry 2 merges 2^1100*exp(z) with 0.5*exp(z): beyond double range
        f, s = parse("2^1100*z^2*exp(z) + 0.5*exp(z)"), parse("z")
        for _ in range(2):
            with pytest.raises(SingularEvaluation, match="floating-point range"):
                composite_derivative(f, s, 3)
        chain = cached_chain(f, s)
        assert len(chain) == 2  # entries 0 and 1 stay, entry 2 is tried again
        with pytest.raises(SingularEvaluation, match="floating-point range"):
            chain.entry(2)
        assert ladder_cache_info()[:3] == (2, 1, 1)

    def test_threads_extend_one_chain_once(self, ladders):
        f, s = parse("1/(1+z)"), parse("sin(z)")
        chain = cached_chain(f, s)
        start = threading.Barrier(4, timeout=60)

        def build():
            start.wait()
            return [chain.entry(n) for n in range(8, -1, -1)]

        with fast_switching(), ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(build) for _ in range(4)]
            results = [future.result(timeout=120) for future in futures]
        assert len(chain) == 9
        serial = OperatorChain(f, s)
        for result in results:
            assert all(got is chain.entry(8 - i) for i, got in enumerate(result))
            assert [repr(e) for e in result] == [repr(serial.entry(n)) for n in range(8, -1, -1)]
        assert ladder_cache_info().nodes == counted_nodes(f, s, 8)

    def test_threads_keep_the_node_count_exact_under_eviction(self, ladders, monkeypatch):
        # 8 threads look up and extend 6 pairs with room for about two
        # ladders; once they are done, a read trims the cache to the budget
        # and reports the sum of the held chains' own counts, and each count
        # is that of a fresh chain built to the same entry
        s = parse("sin(z)")
        fs = [f"1/({a}+z)" for a in range(2, 8)]
        budget = 5 * counted_nodes(parse(fs[0]), s, 4) // 2
        monkeypatch.setattr(composite, "LADDER_CACHE_NODES", budget)

        def work(i):
            for k in range(12):
                cached_chain(parse(fs[(i + k) % 6]), s).entry(1 + k % 4)

        with fast_switching(), ThreadPoolExecutor(8) as pool:
            for future in [pool.submit(work, i) for i in range(8)]:
                future.result(timeout=120)
        info = ladder_cache_info()
        held = list(ladders._chains.values())
        assert held and info.ladders == len(held)
        assert info.nodes == sum(chain._nodes for chain in held) <= budget
        for chain in held:
            assert chain._nodes == counted_nodes(chain.f, s, len(chain) - 1)
        assert info.hits + info.misses == 8 * 12

    def test_seeded_lookups_and_growth_keep_the_recorded_counters(self, monkeypatch):
        # lookups, entry builds and growth of chains looked up earlier, out
        # of lookup order, under four small budgets; the counters read at
        # every fourth step hash to a digest recorded when the cache still
        # evicted as each ladder grew, not at the next lookup
        pairs = [(f, s) for f in ("1/(2+z)", "exp(2*z)", "z^3", "sin(3*z)", "1/(1-z)",
                                  "cos(z)^2", "log(1+z)") for s in ("sin(z)", "exp(z)")]
        digest = hashlib.sha256()
        for budget in (30, 80, 200, 500):
            monkeypatch.setattr(composite, "LADDER_CACHE_NODES", budget)
            monkeypatch.setattr(composite, "_LADDERS", composite._LadderCache())
            rng = random.Random(budget)
            chains = []
            for step in range(60):
                if chains and rng.random() < 0.5:
                    chain = rng.choice(chains)
                    chain.entry(min(len(chain) - 1 + rng.randrange(1, 3), 5))
                else:
                    f, s = rng.choice(pairs)
                    chains.append(cached_chain(parse(f), parse(s)))
                    chains[-1].entry(rng.randrange(4))
                if step % 4 == 3:
                    digest.update(repr(tuple(ladder_cache_info())).encode())
        assert digest.hexdigest() == \
            "569f92226d1c1e2ee380016b43b095fa972b66522203aee8d23332086690999a"

    def test_entries_share_repeated_subtrees(self):
        # each entry shares equal subtrees with itself and the entry before;
        # its text and value stay those of the unshared recurrence
        f, s = parse("1/(1+z)"), parse("sin(z)")
        chain, prev, sprime = OperatorChain(f, s), f, simplify(differentiate(s))
        for n in range(1, 7):
            prev = simplify(divide(differentiate(prev), sprime))
            assert repr(chain.entry(n)) == repr(prev)
            assert repr(evaluate(chain.entry(n), 0.3)) == repr(evaluate(prev, 0.3))
        assert 2 * distinct_nodes(chain.entry(6)) < tree_nodes(prev) == tree_nodes(chain.entry(6))

    def test_sharing_keeps_constant_types_apart(self):
        two = (const(2), const(2), const(2.0), const(0.0), const(-0.0))
        shared = composite._shared(add(*two), {}, {})
        assert repr(shared) == repr(add(*two))
        first, again, *rest = shared.args
        assert again is first
        assert len({id(a) for a in shared.args}) == 4
