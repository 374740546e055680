"""Planar trees, grafting, contraction order, and associahedron face counts."""
import copy
import gc
import pickle
import random
import subprocess
import sys
import weakref

import pytest

from strips_operad import mutants, trees
from strips_operad.serialize import tree_to_json
from strips_operad.framework import OPERAD, run_check
from strips_operad.trees import (LEAF, PlanarTree, contracts_to, corolla,
                                 enumerate_trees, f_vector, graft,
                                 one_step_contractions, random_tree,
                                 tree_dim, tree_from_brackets, tree_leaves,
                                 tree_to_brackets, trees_operad)

from helpers import catalan, polygon_dissection_counts, tree_from_json
from test_plan_sampler import ForwardingRandom


# --- construction -------------------------------------------------------------

def test_unary_vertices_are_forbidden():
    with pytest.raises(ValueError):
        PlanarTree((LEAF,))
    with pytest.raises(ValueError):
        corolla(1)


def test_corolla_dimension():
    for r in range(2, 8):
        assert tree_leaves(corolla(r)) == r
        assert tree_dim(corolla(r)) == r - 2


def test_binary_trees_have_dimension_zero():
    t = graft(corolla(2), (corolla(2), LEAF))
    assert tree_dim(t) == 0
    assert tree_leaves(t) == 3


def test_non_tree_children_are_rejected():
    with pytest.raises(TypeError):
        PlanarTree((LEAF, "*"))
    with pytest.raises(TypeError):
        PlanarTree((LEAF, []))      # unhashable, so never in the table


# --- interning ------------------------------------------------------------------

def test_equal_trees_are_one_object_on_every_path():
    t = PlanarTree((PlanarTree((LEAF, LEAF)), LEAF, corolla(3)))
    assert PlanarTree.parse("((**)*(***))") is t
    assert tree_from_brackets(tree_to_brackets(t)) is t
    assert tree_from_json(tree_to_json(t)) is t
    assert graft(corolla(3), (corolla(2), LEAF, corolla(3))) is t
    assert graft(LEAF, (t,)) is t
    assert any(u is t for u in enumerate_trees(6))
    # contracting the first internal edge of t
    assert next(one_step_contractions(t)) is PlanarTree((LEAF,) * 3 + (corolla(3),))


def test_empty_children_give_the_leaf():
    assert PlanarTree(()) is LEAF
    assert PlanarTree() is LEAF
    assert PlanarTree([]) is LEAF


def test_trees_are_immutable():
    t = corolla(3)
    with pytest.raises(AttributeError):
        t.children = ()
    with pytest.raises(AttributeError):
        t.leaves = 7
    with pytest.raises(AttributeError):
        t.colour = "red"
    with pytest.raises(AttributeError):
        t.dim = 0
    with pytest.raises(AttributeError):
        del t.children
    with pytest.raises(AttributeError):
        del t.dim
    assert t.children == (LEAF,) * 3 and t.leaves == 3 and t.dim == 1


def test_copies_and_pickles_give_back_the_interned_tree():
    t = random_tree(7, random.Random("copy"))
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy([t, t])[0] is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert pickle.loads(pickle.dumps(LEAF)) is LEAF


def test_unreferenced_trees_leave_the_table():
    # 40 leaves: too many for any enumerate_trees result to hold it
    t = PlanarTree((corolla(20), corolla(20)))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_the_table_forgets_every_tree_it_no_longer_holds():
    gc.collect()
    baseline = len(trees._TREES)
    rng = random.Random("table")
    built = [random_tree(rng.randint(20, 40), rng) for _ in range(50)]
    assert len(trees._TREES) > baseline
    del built
    gc.collect()
    assert len(trees._TREES) == baseline


def test_a_dead_entry_is_replaced_and_its_late_callback_keeps_the_new_one():
    # a tree can die before its callback runs (the collector clears weak
    # references first); its key is then built again
    key = (corolla(19), LEAF)
    t = PlanarTree(key)
    dead = trees._Ref(t)
    dead.key = key
    del t
    assert dead() is None and key not in trees._TREES
    trees._TREES[key] = dead
    fresh = PlanarTree(key)
    assert fresh.children == key and trees._TREES[key]() is fresh
    trees._drop(dead)
    assert trees._TREES[key]() is fresh
    assert PlanarTree(key) is fresh


def test_exit_with_live_trees_writes_nothing_to_stderr():
    # trees held by another module, by a reference cycle and by a cache
    script = ("import random\n"
              "from strips_operad.trees import enumerate_trees, random_tree\n"
              "random.kept = [random_tree(30, random.Random(s)) for s in range(20)]\n"
              "cycle = [random_tree(30, random.Random(20))]\n"
              "cycle.append(cycle)\n"
              "faces = enumerate_trees(6)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_stored_leaf_count_matches_a_recursive_count():
    def count(t):
        return 1 if not t.children else sum(count(c) for c in t.children)

    rng = random.Random("leaves")
    for _ in range(200):
        t = random_tree(rng.randint(1, 12), rng)
        assert t.leaves == tree_leaves(t) == count(t)


def recursive_dim(t):
    if not t.children:
        return 0
    return len(t.children) - 2 + sum(recursive_dim(c) for c in t.children)


def test_stored_dimension_matches_a_recursive_count():
    for r in range(1, 8):
        for t in enumerate_trees(r):
            assert t.dim == tree_dim(t) == recursive_dim(t)
    rng = random.Random("dimension")
    for _ in range(200):
        t = random_tree(rng.randint(1, 12), rng)
        assert t.dim == tree_dim(t) == recursive_dim(t)
    assert LEAF.dim == 0


def test_equality_is_identity():
    t = corolla(4)
    assert t == PlanarTree((LEAF,) * 4)
    assert hash(t) == hash(PlanarTree((LEAF,) * 4))
    assert t != corolla(3)
    assert t != "(****)"
    assert len({corolla(4), corolla(4), corolla(2)}) == 2


# --- brackets -----------------------------------------------------------------

def test_brackets_round_trip():
    t = graft(corolla(2), (corolla(2), corolla(3)))
    s = tree_to_brackets(t)
    assert s == "((**)(***))"
    assert tree_from_brackets(s) == t
    assert PlanarTree.parse(s) == t
    assert tree_to_brackets(LEAF) == "*"


def test_brackets_round_trip_random():
    rng = random.Random("brackets")
    for _ in range(100):
        t = random_tree(rng.randint(2, 7), rng)
        assert tree_from_brackets(tree_to_brackets(t)) == t


def test_brackets_rejects_garbage():
    for bad in ("", "(", "(*", "(*)", "**", "(*)(*)"):
        with pytest.raises(ValueError):
            tree_from_brackets(bad)


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of tree expression"),
    ("(**", "unbalanced parentheses"),
    ("**", "trailing characters at 1"),
    ("(**))", "trailing characters at 4"),
    (")", "unexpected character ')' at 0"),
    ("(*x*)", "unexpected character 'x' at 2"),
    ("(*)", "unary vertices are not allowed"),
])
def test_brackets_name_the_defect(text, message):
    with pytest.raises(ValueError) as exc:
        tree_from_brackets(text)
    assert str(exc.value) == message


def test_brackets_parse_a_deep_caterpillar():
    # a reader that recursed once per open parenthesis overflowed the stack
    n = 3000
    t = tree_from_brackets("(" * n + "**)" + "*)" * (n - 1))
    assert (t.leaves, t.dim) == (n + 1, 0)


# --- grafting -----------------------------------------------------------------

def test_graft_counts_leaves():
    out = graft(corolla(3), (corolla(2), LEAF, corolla(4)))
    assert tree_leaves(out) == 2 + 1 + 4
    assert tree_to_brackets(out) == "((**)*(****))"


def test_graft_leaf_is_identity():
    t = random_tree(5, random.Random(3))
    assert graft(LEAF, (t,)) == t
    assert graft(t, (LEAF,) * 5) == t


def test_graft_arity_mismatch():
    with pytest.raises(ValueError):
        graft(corolla(2), (LEAF,))


# --- enumeration vs independent oracle ------------------------------------------

def test_face_totals_match_polygon_dissections():
    for r in range(2, 9):
        oracle = polygon_dissection_counts(r)
        assert len(enumerate_trees(r)) == sum(oracle.values())


def test_f_vector_matches_polygon_dissections():
    for r in range(2, 8):
        oracle = polygon_dissection_counts(r)
        fv = f_vector(r)
        assert len(fv) == r - 1
        for dim, count in enumerate(fv):
            assert count == oracle.get(dim, 0), (r, dim)


def test_vertex_counts_are_catalan():
    for r in range(2, 8):
        assert f_vector(r)[0] == catalan(r - 1)


def test_total_face_counts_frozen():
    assert [len(enumerate_trees(r)) for r in range(2, 9)] == \
        [1, 3, 11, 45, 197, 903, 4279]


def test_enumerate_trees_has_no_duplicates():
    for r in range(2, 7):
        ts = enumerate_trees(r)
        assert len(set(ts)) == len(ts)
        assert all(tree_leaves(t) == r for t in ts)


def test_pentagon_f_vector():
    assert f_vector(4) == (5, 5, 1)


# --- contraction order -----------------------------------------------------------

def test_one_step_contraction_raises_dimension():
    rng = random.Random("contract")
    for _ in range(50):
        t = random_tree(rng.randint(3, 6), rng)
        for c in one_step_contractions(t):
            assert tree_dim(c) == tree_dim(t) + 1
            assert tree_leaves(c) == tree_leaves(t)


def test_contracts_to_is_reflexive():
    for r in range(2, 6):
        for t in enumerate_trees(r):
            assert contracts_to(t, t)


def test_everything_contracts_to_the_corolla():
    for r in range(2, 6):
        for t in enumerate_trees(r):
            assert contracts_to(t, corolla(r))


def test_corolla_contracts_only_to_itself():
    for r in range(2, 6):
        for t in enumerate_trees(r):
            if t != corolla(r):
                assert not contracts_to(corolla(r), t)


def test_contracts_to_is_antisymmetric():
    for r in range(2, 6):
        ts = enumerate_trees(r)
        for t1 in ts:
            for t2 in ts:
                if t1 != t2:
                    assert not (contracts_to(t1, t2) and contracts_to(t2, t1))


def test_contracts_to_agrees_with_contraction_chains():
    """t1 <= t2 exactly when some chain of single contractions joins them."""
    for r in range(2, 7):
        ts = enumerate_trees(r)
        reachable = {t: {t} for t in ts}
        changed = True
        while changed:
            changed = False
            for t in ts:
                for goal in list(reachable[t]):
                    for c in one_step_contractions(goal):
                        if c not in reachable[t]:
                            reachable[t].add(c)
                            changed = True
        for t1 in ts:
            for t2 in ts:
                assert contracts_to(t1, t2) == (t2 in reachable[t1]), (t1, t2)


def test_spans_tell_trees_apart_and_count_internal_edges():
    assert trees._spans(LEAF) == set()
    for r in range(2, 8):
        seen = set()
        for t in enumerate_trees(r):
            spans = frozenset(trees._spans(t))
            assert spans not in seen, t
            seen.add(spans)
            assert len(spans) == r - 2 - t.dim, t


def test_grafting_is_monotone_for_contraction():
    rng = random.Random("monotone")
    for _ in range(40):
        r = rng.randint(2, 4)
        outer = random_tree(r, rng)
        inners_fine = [random_tree(rng.randint(1, 4), rng) for _ in range(r)]
        inners_coarse = []
        for t in inners_fine:
            c = t
            for step in one_step_contractions(c):
                c = step
                break
            inners_coarse.append(c)
        fine = graft(outer, inners_fine)
        coarse = graft(outer, inners_coarse)
        assert contracts_to(fine, coarse)


# --- operad laws ------------------------------------------------------------------

def test_seeded_law_check():
    report = run_check(OPERAD, trees_operad(), "trees", seed=8, cases=200,
                       max_arity=6)
    assert report.ok


def test_exhaustive_small_plans():
    report = run_check(OPERAD, trees_operad(), "trees", seed=0, cases=None,
                       max_arity=2)
    assert report.ok
    assert report.cases_run == 84


def test_mutated_trees_fail():
    report = run_check(OPERAD, mutants.trees_operad(), "trees", seed=8,
                       cases=60, max_arity=6)
    assert not report.ok
    assert all(f.law != "exception" for f in report.failures)


# --- word-for-word draws --------------------------------------------------------
#
# ``random_tree`` reads ``getrandbits`` the way ``randint`` and ``sample`` do.
# The reference below is the earlier sampler on top of those two calls, kept
# only as an oracle: for a seed, both must give the same trees and leave the
# generator in the same state.  r up to 40 reaches both branches of
# ``sample`` (a pool swap, and redraws against a set once r - 1 > 21) and
# samples of more than five cuts.

def ref_random_tree(r, rng):
    if r == 1:
        return LEAF
    parts = rng.randint(2, r)
    cuts = sorted(rng.sample(range(1, r), parts - 1))
    comp = [b - a for a, b in zip((0, *cuts), (*cuts, r))]
    return PlanarTree([ref_random_tree(k, rng) for k in comp])


@pytest.mark.parametrize("forwarded", [False, True], ids=["direct", "forwarded"])
def test_random_tree_matches_randint_and_sample(forwarded):
    for r in range(1, 41):
        new, ref = random.Random(f"tree:{r}"), random.Random(f"tree:{r}")
        drawn = ForwardingRandom(new) if forwarded else new
        for k in range(10):
            assert random_tree(r, drawn) is ref_random_tree(r, ref), (r, k)
            assert new.getstate() == ref.getstate(), (r, k)
        if forwarded and r > 1:     # a one-leaf tree draws nothing
            assert drawn.calls > 0


# Trees of up to four leaves are read off a trie of their draws.  The oracle
# below walks every branch of each trie with a scripted ``getrandbits``,
# putting a rejected word (at least the node's bound) before every other
# accepted word, and runs ``ref_random_tree`` on the same script.

class ScriptedRandom(random.Random):
    """A ``Random`` whose ``getrandbits`` returns the words of a script in
    order, and records each call as ``(bit count, word)``."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)
        self.calls = []

    def getrandbits(self, k):
        word = self.words[len(self.calls)]
        assert 0 <= word < 1 << k, (k, word)
        self.calls.append((k, word))
        return word


def trie_paths(node, path=()):
    """``(path, tree)`` for every leaf of a draw trie, ``path`` listing the
    ``(k, n, v)`` of each node on the way: v is the accepted word."""
    if not isinstance(node, tuple):
        yield path, node
        return
    k, n, children = node
    for v, child in enumerate(children):
        yield from trie_paths(child, path + ((k, n, v),))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_the_draw_table_reads_words_like_the_reference(r):
    paths = list(trie_paths(trees._TRIES[r]))
    rejected = 0
    for index, (path, tree) in enumerate(paths):
        words = []
        for depth, (k, n, v) in enumerate(path):
            if (index + depth) % 2:
                words.append(n)     # n.bit_length() == k, so n < 2 ** k
                rejected += 1
            words.append(v)
        table, ref = ScriptedRandom(words), ScriptedRandom(words)
        assert random_tree(r, table) is tree, path
        assert ref_random_tree(r, ref) is tree, path
        assert table.calls == ref.calls, path
        assert len(table.calls) == len(words), path
    assert rejected > 0 or r == 1


def test_the_draw_tables_hold_every_tree_of_up_to_four_leaves():
    sizes = {2: 3, 3: 13, 4: 71}    # nodes and leaves of each trie

    def size(node):
        return 1 + (sum(map(size, node[2])) if isinstance(node, tuple) else 0)

    assert trees._TRIES[1] is LEAF
    for r in (2, 3, 4):
        drawn = [tree for _, tree in trie_paths(trees._TRIES[r])]
        assert set(drawn) == set(enumerate_trees(r)), r
        assert size(trees._TRIES[r]) == sizes[r], r


def test_random_tree_determinism():
    a = random_tree(6, random.Random(4))
    b = random_tree(6, random.Random(4))
    assert a == b
    assert tree_leaves(a) == 6
