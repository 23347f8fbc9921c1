import numpy as np
import pytest

from polyharm import (
    BoundaryDistribution,
    audit_binomial_identities,
    binomial,
    boundary_kernel,
    build_tree,
    eval_polyharmonic,
    green,
    kernel_consistency_check,
    martin_kernel,
    restrict_to_section,
    section_kernel,
    tree_green,
)
from polyharm import tree as treemod
from polyharm.errors import (
    AdditivityViolation,
    NonPositiveMass,
    NotASection,
    ZeroLambda,
)

from conftest import DEPTH2_SECTION, random_resolvent_point, random_section, random_tree


# ---------------------------------------------------------------- builds

def test_build_uniform_binary(binary_tree):
    assert binary_tree.root == "o"
    assert binary_tree.max_depth == 2
    assert binary_tree.forward_p["u1"] == pytest.approx(0.5)
    assert binary_tree.forward_p["v11"] == pytest.approx(0.5)


def test_build_from_forward_probs():
    t = build_tree({"o": ["a", "b"]}, forward_probs={"a": 0.3, "b": 0.7})
    assert t.measure["a"] == pytest.approx(0.3)
    assert t.measure["b"] == pytest.approx(0.7)


def test_additivity_violation():
    with pytest.raises(AdditivityViolation):
        build_tree({"o": ["a", "b"]}, measure={"o": 1.0, "a": 0.3, "b": 0.6})


def test_nonpositive_mass():
    with pytest.raises(NonPositiveMass):
        build_tree({"o": ["a", "b"]}, measure={"o": 1.0, "a": 1.0, "b": 0.0})


def test_root_mass_must_be_one():
    with pytest.raises(AdditivityViolation):
        build_tree({"o": ["a"]}, measure={"o": 0.9, "a": 0.9})


def test_interior_leaf_rejected():
    kids = {"o": ["a", "b"], "a": ["c"]}
    meas = {"o": 1.0, "a": 0.5, "b": 0.5, "c": 0.5}
    with pytest.raises(ValueError, match="no children"):
        build_tree(kids, measure=meas)


# -------------------------------------------------------------- sections

def test_restrict_depth2(binary_tree):
    c = restrict_to_section(binary_tree, DEPTH2_SECTION)
    assert set(c.interior_ids) == {"o", "u1", "u2"}
    assert set(c.boundary_ids) == set(DEPTH2_SECTION)
    assert np.all(c.p_int[c.p_int > 0] == 0.5)


def test_restrict_depth1(binary_tree):
    c = restrict_to_section(binary_tree, ["u1", "u2"])
    assert c.interior_ids == ("o",)


def test_mixed_depth_section(binary_tree):
    c = restrict_to_section(binary_tree, ["u1", "v21", "v22"])
    assert set(c.interior_ids) == {"o", "u2"}
    assert set(c.boundary_ids) == {"u1", "v21", "v22"}


def test_ancestor_descendant_not_a_section(binary_tree):
    with pytest.raises(NotASection):
        restrict_to_section(binary_tree, ["u1", "v11", "v21", "v22"])


def test_incomplete_section_rejected(binary_tree):
    with pytest.raises(NotASection):
        restrict_to_section(binary_tree, ["u1", "v21"])


def test_root_not_allowed_in_section(binary_tree):
    with pytest.raises(NotASection):
        restrict_to_section(binary_tree, ["o"])


def test_bad_section_rejected_on_every_call(binary_tree):
    bad = ["u1", "v21"]
    for _ in range(3):
        with pytest.raises(NotASection):
            tree_green(binary_tree, bad, 1.0, "o", "o")
        with pytest.raises(NotASection):
            section_kernel(binary_tree, bad, 1.0, 1, "o", "u1")
        # an accepted section in between must not open the door
        assert tree_green(binary_tree, DEPTH2_SECTION, 1.0, "o", "o") == pytest.approx(1.0)


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_section_walked_once(binary_tree):
    binary_tree.children = _CountingDict(binary_tree.children)
    s = DEPTH2_SECTION
    tree_green(binary_tree, s, 1.0, "o", "u1")
    first = binary_tree.children.reads
    assert first > 0
    for _ in range(20):
        tree_green(binary_tree, s, 2.0, "o", "u1")
        section_kernel(binary_tree, s, 1.0, 2, "o", "v11")
        kernel_consistency_check(binary_tree, s, 1.0, 2, "v11")
        # a fresh list or a tuple of the same ids finds the kept record
        tree_green(binary_tree, list(s), 2.0, "o", "u1")
        section_kernel(binary_tree, tuple(s), 1.0, 2, "o", "v11")
    assert binary_tree.children.reads == first
    assert treemod._check_section(binary_tree, list(s)) is treemod._check_section(binary_tree, s)


def test_section_list_edited_in_place(binary_tree):
    s = list(DEPTH2_SECTION)
    assert tree_green(binary_tree, s, 1.0, "o", "u1") == pytest.approx(0.5)
    assert section_kernel(binary_tree, s, 1.0, 1, "u1", "v11") == pytest.approx(2.0)
    s[:] = ["u2", "u1"]  # another valid section, same list object
    with pytest.raises(ValueError, match="'u1' is not an interior vertex"):
        tree_green(binary_tree, s, 1.0, "o", "u1")
    with pytest.raises(ValueError, match="'v11' is not a section vertex"):
        section_kernel(binary_tree, s, 1.0, 1, "u1", "v11")
    for x in ("o", "u1", "u2"):
        for w in s:
            assert section_kernel(binary_tree, s, 1.5, 2, x, w) == \
                section_kernel(binary_tree, ("u2", "u1"), 1.5, 2, x, w)
    assert restrict_to_section(binary_tree, s).interior_ids == ("o",)


def test_section_list_edited_to_an_invalid_one(binary_tree):
    s = list(DEPTH2_SECTION)
    assert tree_green(binary_tree, s, 1.0, "o", "o") == pytest.approx(1.0)
    s[0] = "u1"  # u1 and v12 lie on one path
    for _ in range(3):
        with pytest.raises(NotASection, match="meets the section twice"):
            tree_green(binary_tree, s, 1.0, "o", "o")
        with pytest.raises(NotASection, match="meets the section twice"):
            section_kernel(binary_tree, s, 1.0, 1, "o", "v12")
    s[0] = "v11"
    assert tree_green(binary_tree, s, 1.0, "o", "o") == pytest.approx(1.0)


def test_tuple_and_set_sections(binary_tree):
    want_g = tree_green(binary_tree, list(DEPTH2_SECTION), 1.3, "o", "u2")
    want_k = section_kernel(binary_tree, list(DEPTH2_SECTION), 1.3, 2, "u2", "v21")
    for s in (tuple(DEPTH2_SECTION), set(DEPTH2_SECTION), frozenset(DEPTH2_SECTION)):
        for _ in range(2):
            assert tree_green(binary_tree, s, 1.3, "o", "u2") == want_g
            assert section_kernel(binary_tree, s, 1.3, 2, "u2", "v21") == want_k
            assert restrict_to_section(binary_tree, s).interior_ids == ("o", "u1", "u2")


def test_tree_green_domain_is_the_restriction_interior():
    rng = np.random.default_rng(137)
    for _ in range(20):
        t = random_tree(rng)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        accepted = []
        for v in t.vertices + ("bogus", ""):
            try:
                tree_green(t, sec, 1.0, v, v)
            except ValueError as exc:
                assert repr(v) in str(exc)
            else:
                accepted.append(v)
        assert tuple(accepted) == c.interior_ids


def test_section_kernel_refuses_x_off_the_restriction(binary_tree):
    s = ["u1", "u2"]
    for x in ("v11", "v22", "bogus"):
        with pytest.raises(ValueError, match=f"{x!r} is not a vertex of the restriction"):
            section_kernel(binary_tree, s, 1.0, 1, x, "u1")
    # interior and section vertices are both in the domain
    assert section_kernel(binary_tree, s, 1.0, 1, "o", "u1") == pytest.approx(1.0)
    assert section_kernel(binary_tree, s, 1.0, 1, "u1", "u1") == pytest.approx(2.0)
    assert section_kernel(binary_tree, s, 1.0, 1, "u2", "u1") == 0.0


def test_unknown_vertex_ids_raise_value_error(binary_tree):
    prob = BoundaryDistribution.from_measure(binary_tree)
    calls = [
        lambda: binary_tree.is_ancestor("bogus", "u1"),
        lambda: binary_tree.is_ancestor("u1", "bogus"),
        lambda: boundary_kernel(binary_tree, 1.0, 1, "o", "bogus"),
        lambda: eval_polyharmonic(binary_tree, 1.0, [prob], "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown vertex 'bogus'"):
            call()


def test_restriction_is_nilpotent():
    rng = np.random.default_rng(101)
    for _ in range(10):
        t = random_tree(rng)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        p_int = c.p_int
        power = np.eye(p_int.shape[0])
        for _ in range(t.max_depth):
            power = power @ p_int
        assert np.array_equal(power, np.zeros_like(power))


# ---------------------------------------------------------- closed forms

def test_tree_green_values(binary_tree):
    s = DEPTH2_SECTION
    assert tree_green(binary_tree, s, 1.0, "o", "u1") == pytest.approx(0.5)
    assert tree_green(binary_tree, s, 1.0, "u1", "u2") == 0.0
    assert tree_green(binary_tree, s, 2.0, "o", "o") == pytest.approx(0.5)


def test_tree_green_zero_lambda(binary_tree):
    with pytest.raises(ZeroLambda):
        tree_green(binary_tree, DEPTH2_SECTION, 0.0, "o", "u1")


def test_section_kernel_values(binary_tree):
    s = DEPTH2_SECTION
    assert section_kernel(binary_tree, s, 1.0, 2, "o", "v11") == pytest.approx(2.0)
    assert section_kernel(binary_tree, s, 1.0, 1, "u1", "v11") == pytest.approx(2.0)
    assert section_kernel(binary_tree, s, 1.0, 1, "u2", "v11") == 0.0


def test_boundary_kernel_values(binary_tree):
    assert boundary_kernel(binary_tree, 1.0, 2, "o", "v11") == 0.0
    assert boundary_kernel(binary_tree, 1.0, 2, "v11", "v11") == pytest.approx(-8.0)
    assert boundary_kernel(binary_tree, 2.0, 1, "u1", "v11") == pytest.approx(4.0)


def test_boundary_kernel_ambiguous_arc(binary_tree):
    with pytest.raises(ValueError, match="constant"):
        boundary_kernel(binary_tree, 1.0, 1, "v11", "u1")


def test_closed_green_matches_general():
    rng = np.random.default_rng(103)
    for _ in range(15):
        t = random_tree(rng, max_depth=4)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        lam = random_resolvent_point(rng, rho=0.3, margin=0.2, spread=1.2)
        gm = green(c, lam)
        ids = c.interior_ids
        for xi, x in enumerate(ids):
            for yi, y in enumerate(ids):
                closed = tree_green(t, sec, lam, x, y)
                general = gm.g[xi, yi]
                assert abs(closed - general) <= 1e-9 * (1 + abs(closed))


def test_closed_kernel_matches_general():
    rng = np.random.default_rng(107)
    for _ in range(15):
        t = random_tree(rng, max_depth=4)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        lam = random_resolvent_point(rng, rho=0.3, margin=0.4, spread=1.2)
        r_max = 4
        mk = martin_kernel(c, lam, t.root, n=r_max)
        for r in range(1, r_max + 1):
            for xi, x in enumerate(c.interior_ids):
                for wj, w in enumerate(c.boundary_ids):
                    closed = section_kernel(t, sec, lam, r, x, w)
                    general = mk.higher[r - 1][xi, wj]
                    assert abs(closed - general) <= 1e-9 * (1 + abs(closed) + abs(general))


def _binary_tree(rng, depth):
    children, measure, frontier = {}, {"o": 1.0}, ["o"]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            share = 0.5 + rng.random(2)
            children[v] = [v + "0", v + "1"]
            for c, m in zip(children[v], share / share.sum()):
                measure[c] = measure[v] * float(m)
            nxt += children[v]
        frontier = nxt
    return build_tree(children, measure=measure), frontier


def test_depth8_closed_forms_match_general():
    rng = np.random.default_rng(139)
    t, sec = _binary_tree(rng, 8)
    c = restrict_to_section(t, sec)
    assert (len(c.interior_ids), len(c.boundary_ids)) == (255, 256)
    lam = random_resolvent_point(rng, rho=0.3, margin=0.4, spread=1.2)

    def assert_close(closed, general):
        assert np.all(np.abs(closed - general) <= 1e-9 * (1 + np.abs(closed) + np.abs(general)))

    inner, ws = c.interior_ids, c.boundary_ids
    assert_close(np.array([[tree_green(t, sec, lam, x, y) for y in inner] for x in inner]),
                 green(c, lam).g)
    mk = martin_kernel(c, lam, t.root, n=2)
    for r in (1, 2):
        assert_close(np.array([[section_kernel(t, sec, lam, r, x, w) for w in ws]
                               for x in inner]), mk.higher[r - 1])


def test_section_orderings_share_one_record():
    """The record of a section does not depend on the order of its ids:
    50 shuffled orderings of the depth-8 section keep one record."""
    rng = np.random.default_rng(141)
    t, sec = _binary_tree(rng, 8)
    recs = {id(treemod._check_section(t, [sec[i] for i in rng.permutation(len(sec))]))
            for _ in range(50)}
    assert len(recs) == 1


def test_the_tree_keeps_one_section_record(monkeypatch):
    """Only the last section's record is kept: the same ids in any order
    or collection type reuse it, another section replaces it, and going
    back to the first section walks that one again."""
    t, sec = _binary_tree(np.random.default_rng(143), 3)
    other = [v for v in t.vertices if t.depth[v] == 2]
    walk, walks = treemod._walk_section, []
    monkeypatch.setattr(treemod, "_walk_section",
                        lambda tree, key: walks.append(key) or walk(tree, key))
    for s in (sec, sec[::-1], tuple(sec), set(sec), frozenset(sec), other, list(other), sec):
        assert treemod._check_section(t, s).ids.keys() == set(s)
    assert walks == [frozenset(sec), frozenset(other), frozenset(sec)]


def test_hitting_from_origin_closed_form():
    rng = np.random.default_rng(109)
    for _ in range(15):
        t = random_tree(rng, max_depth=4)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        lam = random_resolvent_point(rng, rho=0.3, margin=0.3, spread=1.5)
        gm = green(c, lam)
        o_pos = c.interior_ids.index(t.root)
        for wj, w in enumerate(c.boundary_ids):
            closed = lam ** (-t.depth[w]) * t.measure[w]
            assert abs(gm.f[o_pos, wj] - closed) <= 1e-12 * (1 + abs(closed))


def test_boundary_kernel_recursion():
    # (lam I - P) applied to the order-r kernel gives the order-(r-1) one
    rng = np.random.default_rng(113)
    for _ in range(10):
        t = random_tree(rng, max_depth=4)
        lam = random_resolvent_point(rng, rho=0.3, margin=0.4, spread=1.5)
        frontier = [v for v in t.vertices if t.depth[v] == t.max_depth]
        ray = t.path_from_root(frontier[0])
        for r in range(2, 6):
            for x in ray[:-1]:
                nxt = ray[ray.index(x) + 1]
                k_r_x = boundary_kernel(t, lam, r, x, frontier[0])
                k_r_child = boundary_kernel(t, lam, r, nxt, frontier[0])
                k_prev = boundary_kernel(t, lam, r - 1, x, frontier[0])
                lhs = lam * k_r_x - t.forward_p[nxt] * k_r_child
                assert abs(lhs - k_prev) <= 1e-10 * (1 + abs(k_prev))


def test_eval_polyharmonic_harmonic_cases(binary_tree):
    prob = BoundaryDistribution.from_measure(binary_tree)
    for v in binary_tree.vertices:
        assert eval_polyharmonic(binary_tree, 1.0, [prob], v) == pytest.approx(1.0)
        val = eval_polyharmonic(binary_tree, 3.0, [prob], v)
        assert val == pytest.approx(3.0 ** binary_tree.depth[v])


def test_eval_polyharmonic_forward_averaging():
    # f(x) = lam^|x| satisfies P f = lam f under forward averaging
    rng = np.random.default_rng(127)
    t = random_tree(rng, max_depth=4)
    prob = BoundaryDistribution.from_measure(t)
    lam = 1.7
    for v in t.vertices:
        if t.children[v]:
            avg = sum(t.forward_p[c] * eval_polyharmonic(t, lam, [prob], c)
                      for c in t.children[v])
            assert avg == pytest.approx(lam * eval_polyharmonic(t, lam, [prob], v))


def test_eval_polyharmonic_order2(binary_tree):
    zero = {v: 0.0 for v in binary_tree.vertices}
    prob = BoundaryDistribution.from_measure(binary_tree)
    for v in binary_tree.vertices:
        val = eval_polyharmonic(binary_tree, 1.0, [zero, prob], v)
        assert val == pytest.approx(-binary_tree.depth[v])


def test_eval_polyharmonic_additivity_guard(binary_tree):
    bad = {v: 1.0 for v in binary_tree.vertices}
    with pytest.raises(AdditivityViolation):
        eval_polyharmonic(binary_tree, 1.0, [bad], "o")


# --------------------------------------------------------------- binomial

def test_generalised_binomial():
    assert binomial(3, 2) == 3
    assert binomial(-1, 0) == 1
    assert binomial(-2, 1) == -2
    assert binomial(-2, 2) == 3
    assert binomial(0, 1) == 0
    assert binomial(5, -1) == 0


def test_binomial_identity_audit():
    derived_ok, alternate_ok, counter = audit_binomial_identities()
    assert derived_ok
    assert not alternate_ok
    assert counter is not None


def test_identity_spot_values():
    # a=1, b=3, n=2: derived form gives 1 = 3 - 2
    a, b, n = 1, 3, 2
    lhs = binomial(a, n - 1)
    rhs = sum(((-1) ** (r - 1)) * binomial(b - a + r - 2, r - 1) * binomial(b, n - r)
              for r in range(1, n + 1))
    assert lhs == rhs == 1
    # the rejected variant misses: 3 vs -5
    alt = sum(((-1) ** (n - r)) * binomial(b - a - r - 2, r - 1) * binomial(b, n - r)
              for r in range(1, n + 1))
    assert binomial(b, n - 1) == 3 and alt == -5


# ------------------------------------------------------------ consistency

def test_kernel_consistency_binary(binary_tree):
    rep = kernel_consistency_check(binary_tree, DEPTH2_SECTION, 1.0, 2, "v11")
    assert rep.max_deviation <= 1e-10
    assert rep.derived_identity_ok
    assert not rep.alternate_identity_ok
    assert rep.lhs["u1"] == pytest.approx(-2.0)
    assert rep.lhs["v11"] == pytest.approx(-8.0)


def test_kernel_consistency_audits_the_identities_once(binary_tree, monkeypatch):
    holds, calls = treemod._derived_identity_holds, [0]

    def counting(*args):
        calls[0] += 1
        return holds(*args)

    monkeypatch.setattr(treemod, "_derived_identity_holds", counting)
    treemod._audit.cache_clear()
    first = kernel_consistency_check(binary_tree, DEPTH2_SECTION, 1.0, 2, "v11")
    assert calls[0] == 20 * 21 // 2 * 8  # 0 <= a < b <= 20, 1 <= n <= 8
    second = kernel_consistency_check(binary_tree, DEPTH2_SECTION, 1.0, 2, "v11")
    assert calls[0] == 20 * 21 // 2 * 8
    for name in ("derived_identity_ok", "alternate_identity_ok", "alternate_counterexample",
                 "max_deviation", "lhs", "rhs"):
        assert getattr(second, name) == getattr(first, name)
    assert first.derived_identity_ok and not first.alternate_identity_ok
    assert first.alternate_counterexample is not None


def test_kernel_consistency_order1_exact(binary_tree):
    rep = kernel_consistency_check(binary_tree, DEPTH2_SECTION, 1.3, 1, "v12")
    assert rep.max_deviation <= 1e-13


def test_kernel_consistency_random():
    rng = np.random.default_rng(131)
    for _ in range(10):
        t = random_tree(rng, max_depth=4)
        sec = random_section(rng, t)
        w = sorted(sec)[0]
        lam = random_resolvent_point(rng, rho=0.3, margin=0.4, spread=1.2)
        n = int(rng.integers(1, 5))
        rep = kernel_consistency_check(t, sec, lam, n, w)
        scale = 1 + max(abs(v) for v in rep.lhs.values())
        assert rep.max_deviation <= 1e-10 * scale


def test_tree_green_small_lambda(binary_tree):
    # nilpotent interior: every nonzero lam is usable, even tiny ones
    lam = 0.1 + 0.05j
    c = restrict_to_section(binary_tree, DEPTH2_SECTION)
    gm = green(c, lam)
    for xi, x in enumerate(c.interior_ids):
        for yi, y in enumerate(c.interior_ids):
            closed = tree_green(binary_tree, DEPTH2_SECTION, lam, x, y)
            assert abs(closed - gm.g[xi, yi]) <= 1e-9 * (1 + abs(closed))


def test_tree_doc_round_trip(binary_tree):
    from polyharm.formats import tree_from_doc, tree_to_doc

    doc = tree_to_doc(binary_tree, section=DEPTH2_SECTION)
    rebuilt, section = tree_from_doc(doc)
    assert rebuilt.vertices == binary_tree.vertices
    assert section == sorted(DEPTH2_SECTION)
    for v in binary_tree.vertices:
        assert rebuilt.measure[v] == binary_tree.measure[v]


def test_section_kernel_matches_the_binomial_formula_at_depth_8():
    """Every order r <= 8 at every vertex on the root path of every
    section vertex, including x = w (where r = 1 takes C(-1, 0)), equals
    the formula with the generalised binomial exactly; off the path the
    kernel is zero."""
    t, sec = _binary_tree(np.random.default_rng(8), 8)
    lam = complex(1.3, -0.4)
    for w in sec:
        for x in t.path_from_root(w):
            dx, dw, mx = t.depth[x], t.depth[w], t.measure[x]
            for r in range(1, 9):
                want = lam ** (dx - r + 1) * binomial(dw - dx + r - 2, r - 1) / mx
                assert section_kernel(t, sec, lam, r, x, w) == want
    assert section_kernel(t, sec, lam, 2, sec[0], sec[1]) == 0


def test_closed_forms_give_the_same_bytes_for_every_lambda_type(binary_tree):
    s = DEPTH2_SECTION
    inner = ["o", "u1", "u2"]

    def entries(lam):
        green = [tree_green(binary_tree, s, lam, x, y) for x in inner for y in inner]
        kern = [section_kernel(binary_tree, s, lam, r, x, w)
                for r in (1, 2, 3) for x in inner + s for w in s]
        return np.array(green + kern).tobytes()

    for value in (2, -3, 0.75, -1.5):
        want = entries(complex(value))
        for lam in (value, float(value), np.complex128(value), np.float64(value)):
            assert entries(lam) == want, type(lam)
    assert entries(np.complex128(0.5 - 1.25j)) == entries(0.5 - 1.25j)
    for zero in (0, 0.0, 0j, np.complex128(0)):
        with pytest.raises(ZeroLambda):
            tree_green(binary_tree, s, zero, "o", "u1")
        with pytest.raises(ZeroLambda):
            section_kernel(binary_tree, s, zero, 1, "o", s[0])
        with pytest.raises(ZeroLambda):  # lam is checked before the section
            section_kernel(binary_tree, ["nowhere"], zero, 1, "o", s[0])
