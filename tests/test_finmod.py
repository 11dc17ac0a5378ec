import dataclasses
import itertools
import random

import pytest

from icrl import finmod
from icrl.corpus import gen_sequent, gen_term
from icrl.finmod import (
    FiniteAlgebra,
    algebra_from_dict,
    algebra_to_dict,
    check_property,
    countermodel_class,
    enumerate_algebras,
    eval_term,
    negative_cone,
    refute,
    validate,
)
from icrl.terms import (
    E, Join, LDiv, Meet, Sequent, Theory, Var, parse_sequent, parse_term, variables,
)
from tests_helpers_algebras import canonical_form, lattices, reference_refute, two_chain_dict

x, y = Var("x"), Var("y")


def two_chain() -> FiniteAlgebra:
    # 0 = bottom, 1 = e; fusion is meet
    return FiniteAlgebra(
        size=2,
        e=1,
        leq=((True, True), (False, True)),
        meet=((0, 0), (0, 1)),
        join=((0, 1), (1, 1)),
        fuse=((0, 0), (0, 1)),
        ldiv=((1, 1), (0, 1)),
        rdiv=((1, 0), (1, 1)),
    )


def powerset_of_two() -> FiniteAlgebra:
    # subsets of the monoid {e, a} with a*a = a: 0={}, 1={e}, 2={a}, 3={e,a}
    def subset_le(i, j):
        return (i & ~j) == 0

    leq = tuple(tuple(subset_le(i, j) for j in range(4)) for i in range(4))
    meet = tuple(tuple(i & j for j in range(4)) for i in range(4))
    join = tuple(tuple(i | j for j in range(4)) for i in range(4))

    def prod(i, j):
        out = 0
        for bi, ei in ((1, "e"), (2, "a")):
            if not i & bi:
                continue
            for bj, ej in ((1, "e"), (2, "a")):
                if not j & bj:
                    continue
                out |= bi if (ei, ej) == ("e", "e") else 2
        return out

    fuse = tuple(tuple(prod(i, j) for j in range(4)) for i in range(4))

    def greatest(sols):
        best = [s for s in sols if all(subset_le(t, s) for t in sols)]
        assert len(best) == 1
        return best[0]

    ldiv = tuple(
        tuple(greatest([b for b in range(4) if subset_le(fuse[a][b], c)]) for c in range(4))
        for a in range(4)
    )
    rdiv = tuple(
        tuple(greatest([b for b in range(4) if subset_le(fuse[b][cc], aa)]) for cc in range(4))
        for aa in range(4)
    )
    return FiniteAlgebra(size=4, e=1, leq=leq, meet=meet, join=join, fuse=fuse, ldiv=ldiv, rdiv=rdiv)


def z2_sirmonoid() -> FiniteAlgebra:
    # the two-element group as a sirmonoid: discrete order, division tables
    return FiniteAlgebra(
        size=2,
        e=0,
        fuse=((0, 1), (1, 0)),
        ldiv=((0, 1), (1, 0)),
        rdiv=((0, 1), (1, 0)),
    )


def test_validate_two_chain():
    assert validate(two_chain()) == []


def test_validate_brute_force_residuation_triples():
    a = two_chain()
    for xx, bb, cc in itertools.product(range(2), repeat=3):
        fused = a.leq[a.fuse[xx][bb]][cc]
        assert a.leq[bb][a.ldiv[xx][cc]] == fused
        assert a.leq[xx][a.rdiv[cc][bb]] == fused


def test_validate_catches_broken_residual():
    a = two_chain()
    broken = FiniteAlgebra(
        size=2, e=1, leq=a.leq, meet=a.meet, join=a.join, fuse=a.fuse,
        ldiv=((0, 1), (0, 1)),  # ldiv(bottom, bottom) corrupted to bottom
        rdiv=a.rdiv,
    )
    violations = validate(broken)
    assert violations
    assert any("residuation" in v for v in violations)


def test_validate_powerset_algebra():
    assert validate(powerset_of_two()) == []


def test_validate_z2_sirmonoid():
    assert validate(z2_sirmonoid()) == []


def test_an_order_table_on_a_residual_signature_is_rejected_and_ignored():
    # sirmonoids and pseudo BCI-algebras take their order from the residual
    sirm = next(
        a for a in enumerate_algebras(2, "sirmonoid") if all(a.le(x, a.e) for x in range(2))
    )
    forged = dataclasses.replace(sirm, leq=((True, True), (True, True)))
    assert validate(forged) == ["sirmonoid signature must not carry an order table"]
    pbci = dataclasses.replace(forged, fuse=None)
    assert validate(pbci) == ["pbci signature must not carry an order table"]
    for alg in (forged, pbci):
        assert [alg.le(alg.e, x) for x in range(2)] == [x == alg.e for x in range(2)]


def test_a_join_table_on_the_pbci_signature_is_rejected():
    sirm = enumerate_algebras(2, "sirmonoid")[0]
    forged = dataclasses.replace(sirm, fuse=None, join=((0, 0), (0, 0)))
    assert forged.signature == "pbci"
    assert validate(forged) == ["pbci signature must not carry lattice tables"]
    both = dataclasses.replace(forged, leq=((True, True), (True, True)))
    assert validate(both) == [
        "pbci signature must not carry lattice tables",
        "pbci signature must not carry an order table",
    ]


def test_check_property_examples():
    chain = two_chain()
    assert check_property(chain, "integrally_closed") is True
    assert check_property(chain, "integral") is True
    ps = powerset_of_two()
    assert check_property(ps, "integrally_closed") is False
    assert check_property(ps, "integral") is False
    assert check_property(ps, "e_cyclic") is True
    z2 = z2_sirmonoid()
    assert check_property(z2, "integrally_closed") is True
    assert check_property(z2, "integral") is False
    assert check_property(z2, "torsion_free", 2) is False  # a*a = e


def non_commutative_chain() -> FiniteAlgebra:
    # the smallest integral residuated lattices that are not commutative have 4 elements
    return next(a for a in enumerate_algebras(4, "integral") if not a.is_commutative())


def test_check_property_commutativity_and_signatures():
    chain, z2, chain4 = two_chain(), z2_sirmonoid(), non_commutative_chain()
    assert check_property(chain, "commutative") is True
    assert check_property(chain4, "commutative") is False
    assert check_property(chain, "rl") is True and check_property(z2, "rl") is False
    assert check_property(z2, "sirmonoid") is True and check_property(chain, "sirmonoid") is False
    # the residual reduct is a pseudo BCI-algebra; an algebra without residuals has none
    assert all(check_property(a, "pbci") for a in (chain, z2, chain4))
    assert check_property(dataclasses.replace(chain, ldiv=None, rdiv=None), "pbci") is False
    with pytest.raises(ValueError, match="unknown property 'modular'"):
        check_property(chain, "modular")
    with pytest.raises(ValueError, match="casari check needs a pointed"):
        check_property(chain, "casari")


def test_is_commutative_without_fusion_compares_the_residuals():
    # x \ y = y / x for all x, y exactly when fusion commutes
    for alg, commutative in ((two_chain(), True), (non_commutative_chain(), False)):
        reduct = FiniteAlgebra(size=alg.size, e=alg.e, ldiv=alg.ldiv, rdiv=alg.rdiv)
        assert reduct.signature == "pbci"
        assert reduct.is_commutative() is commutative


def test_eval_term_examples():
    chain = two_chain()
    assert eval_term(chain, {"x": 0}, LDiv(x, x)) == chain.e
    assert eval_term(chain, {}, E) == chain.e
    assert eval_term(chain, {"x": 0}, Meet(x, E)) == 0
    with pytest.raises(ValueError):
        eval_term(chain, {}, x)


def test_refute_examples():
    hit = refute(parse_sequent("e => x"), 3, "integral")
    assert hit is not None
    alg, val = hit
    assert alg.size == 2 and not alg.le(alg.e, val["x"])
    assert refute(parse_sequent("x \\ x => e"), 3, "integral") is None
    m = parse_sequent("x * y => y", Theory.SIRM)
    hit = refute(m, 2, "sirmonoid")
    assert hit is not None
    alg, val = hit
    assert not validate(alg)


def test_enumerate_small_sizes():
    assert len(enumerate_algebras(1, "rl")) == 1
    size2 = enumerate_algebras(2, "rl")
    assert len(size2) >= 1
    assert any(check_property(a, "integral") for a in size2)
    sir2 = enumerate_algebras(2, "sirmonoid")
    # the two-element group and the two-element integral chain
    assert len(sir2) == 2
    assert any(not check_property(a, "integral") for a in sir2)


def test_enumerate_rl_matches_brute_force_at_size_2():
    found = set()
    for leq, meet, join in lattices(2):
        for e in range(2):
            for cells in itertools.product(range(2), repeat=4):
                fuse = (cells[0:2], cells[2:4])
                alg = finmod._finish(2, e, leq, fuse, meet, join)
                if alg is not None:
                    found.add(canonical_form(alg))
    assert len(found) == len(enumerate_algebras(2, "rl"))


def test_enumerated_algebras_all_validate():
    for size in (1, 2, 3):
        for cls in ("rl", "integral", "sirmonoid"):
            for alg in enumerate_algebras(size, cls):
                assert validate(alg) == [], (size, cls)
    for alg in enumerate_algebras(2, "casari"):
        assert validate(alg) == []
        assert check_property(alg, "casari")


def test_negative_cone_examples():
    chain = two_chain()
    cone = negative_cone(chain)
    assert cone.size == chain.size  # already integral
    ps = powerset_of_two()
    cone = negative_cone(ps)
    assert cone.size == 2
    assert validate(cone) == []
    assert check_property(cone, "integral")
    triv = FiniteAlgebra(
        size=1, e=0, leq=((True,),), meet=(((0),),), join=(((0),),),
        fuse=(((0),),), ldiv=(((0),),), rdiv=(((0),),),
    )
    triv = FiniteAlgebra(size=1, e=0, leq=((True,),), meet=((0,),), join=((0,),),
                         fuse=((0,),), ldiv=((0,),), rdiv=((0,),))
    assert negative_cone(triv).size == 1


def test_negative_cone_translation_agreement():
    # A- satisfies s = t  iff  A satisfies the guarded translations
    from icrl.terms import neg_translation

    rng = random.Random(4242)
    algebras = [a for a in enumerate_algebras(3, "rl")]
    for _ in range(60):
        a = rng.choice(algebras)
        cone = negative_cone(a)
        s = gen_term(rng, num_vars=2, depth=2)
        t = gen_term(rng, num_vars=2, depth=2)
        st, tt = neg_translation(s), neg_translation(t)
        lhs = all(
            eval_term(cone, {"x": vx, "y": vy}, s) == eval_term(cone, {"x": vx, "y": vy}, t)
            for vx in range(cone.size)
            for vy in range(cone.size)
        )
        rhs = all(
            eval_term(a, {"x": vx, "y": vy}, st) == eval_term(a, {"x": vx, "y": vy}, tt)
            for vx in range(a.size)
            for vy in range(a.size)
        )
        assert lhs == rhs


def test_algebra_json_round_trip():
    for alg in (two_chain(), powerset_of_two(), z2_sirmonoid()):
        blob = algebra_to_dict(alg)
        back = algebra_from_dict(blob)
        assert back == alg


@pytest.mark.parametrize(
    "key, value",
    [
        ("fuse", [0.4, 0, 0, 1]),
        ("fuse", [0, 0, 0, 1.9]),
        ("leq", [7, 1, 0, 1]),
        ("leq", ["1", 1, 0, 1]),
        ("leq", [True, 1, 0, 1]),
        ("e", True),
        ("f", 0.0),
        ("size", 2.0),
    ],
)
def test_algebra_files_hold_integer_entries_only(key, value):
    # a cast would read 0.4 as 0 and 7 as an order entry
    with pytest.raises(ValueError, match=repr(key)):
        algebra_from_dict({**two_chain_dict(), key: value})


def test_refutation_agrees_with_prover():
    from icrl.prover import search

    rng = random.Random(31)
    for _ in range(40):
        s = parse_sequent("e => x") if rng.random() < 0.1 else None
        if s is None:
            from icrl.corpus import gen_sequent

            s = gen_sequent(rng, num_vars=2, depth=2, max_left=2)
        hit = refute(s, 3, "integral")
        if hit is not None:
            assert not search(s, Theory.ICRL).derivable, s


def test_rl_countermodels_are_searched_among_all_residuated_lattices():
    # x <= e holds in every integral algebra, but not in every residuated lattice
    assert countermodel_class(Theory.RL) == ("rl", False)
    assert refute(parse_sequent("x => e"), 3, *countermodel_class(Theory.RL)) is not None
    assert refute(parse_sequent("x => e"), 3, *countermodel_class(Theory.IRL)) is None


def test_countermodel_class_of_each_theory():
    assert {th.value: countermodel_class(th) for th in Theory} == {
        "rl": ("rl", False),
        "irl": ("integral", False),
        "icrl": ("integral", False),
        "cicrl": ("integral", True),
        "sirm": ("sirmonoid", False),
        "pseudobci": ("sirmonoid", False),
        "sircom": ("sirmonoid", True),
        "bci": ("sirmonoid", True),
        "ca": ("casari", True),
    }


def test_refute_skips_non_commutative_algebras_when_asked():
    # x * y => y * x fails only where fusion does not commute
    s = parse_sequent("x * y => y * x", Theory.IRL)
    assert refute(s, 4, "integral", commutative=True) is None
    alg, val = refute(s, 4, "integral", commutative=False)
    assert not alg.is_commutative()
    assert not alg.le(eval_term(alg, val, s.left[0]), eval_term(alg, val, s.right[0]))


def test_sirmonoid_enumeration_cap():
    assert finmod.MAX_SIZE["sirmonoid"] == 4
    with pytest.raises(ValueError, match="out of range"):
        enumerate_algebras(5, "sirmonoid")


# --- lanes against the scalar reference ----------------------------------------


# each countermodel class with a theory whose sequents have its signature
_THEORY_OF_CLASS = {
    "rl": Theory.RL, "integral": Theory.ICRL, "sirmonoid": Theory.SIRM, "casari": Theory.CA,
}


@pytest.mark.parametrize("cls", sorted(finmod.MAX_SIZE))
def test_lanes_equal_eval_term_on_every_lane(cls):
    """1,500 seeded terms of the class's signature, each on the next algebra
    of the class up to size 4 in turn; a term's lanes hold every valuation
    of its variables."""
    th = _THEORY_OF_CLASS[cls]
    algebras = [a for n in range(1, 5) for a in enumerate_algebras(n, cls)]
    rng = random.Random(f"lanes-{cls}")
    for i in range(1500):
        a = algebras[i % len(algebras)]
        t = gen_term(rng, num_vars=rng.randint(1, 3), depth=rng.randint(1, 5),
                     lattice=th.has_lattice_ops, pointed=th.pointed)
        names = sorted(variables(t))
        points = list(itertools.product(range(a.size), repeat=len(names)))
        columns = [int.from_bytes(bytes(column), "little") for column in zip(*points)]
        lanes = finmod.Lanes(a, len(points), dict(zip(names, columns)).__getitem__).value(t)
        expected = [eval_term(a, dict(zip(names, p)), t) for p in points]
        assert list(lanes.to_bytes(len(points), "little")) == expected, (cls, a, t)


def _seeded_sequents(th, count):
    rng = random.Random(f"refute-{th.value}")
    for _ in range(count):
        yield gen_sequent(
            rng, num_vars=rng.randint(1, 3), depth=rng.randint(1, 3), max_left=3,
            lattice=th.has_lattice_ops, fuse=th.has_fuse, pointed=th.pointed,
            max_right=2 if th.multiple_conclusion else 1,
        )


def test_refute_equals_the_scalar_reference_on_seeded_sequents():
    """60 seeded sequents per theory, each refuted in the theory's class at
    bounds 1 to 4: the same algebra and valuation, or None, as the scalar loop."""
    answers = []
    for th in Theory:
        cls, commutative = countermodel_class(th)
        for s in _seeded_sequents(th, 60):
            for bound in range(1, 5):
                hit = refute(s, bound, cls, commutative)
                assert hit == reference_refute(s, bound, cls, commutative), (th, s, bound)
                answers.append((th, s, hit))
    assert {th for th, _, hit in answers if hit is None} == set(Theory)
    assert {th for th, _, hit in answers if hit is not None} == set(Theory)
    sums = [s for th, s, hit in answers if th is Theory.CA and hit is not None]
    assert any(len(s.right) == 2 for s in sums) and any(not s.right for s in sums)
    assert any(not s.left for th, s, _ in answers)


@pytest.mark.parametrize("max_lanes", [1, 2, 5, 27])
def test_refute_over_several_passes_equals_the_scalar_reference(monkeypatch, max_lanes):
    """With fewer lanes a pass, the leading variables are looped over."""
    monkeypatch.setattr(finmod, "MAX_LANES", max_lanes)
    for th in (Theory.IRL, Theory.SIRM, Theory.CA):
        cls, commutative = countermodel_class(th)
        for s in _seeded_sequents(th, 30):
            assert refute(s, 3, cls, commutative) == reference_refute(s, 3, cls, commutative), s


def test_refute_finds_a_countermodel_past_the_first_pass(monkeypatch):
    # 17 variables on the 2-chain: 2**16 lanes a pass, and a = 0 in the first
    names = [chr(c) for c in range(ord("a"), ord("r")) if chr(c) != "e"] + ["r"]
    assert len(names) == 17 and 2 ** 16 == finmod.MAX_LANES
    a, b, *rest = (Var(n) for n in names)
    conj = b
    for v in rest:
        conj = Meet(conj, v)
    s = Sequent((a,), (Join(b, conj),))  # a => b, mentioning every variable
    widths = []

    class Recording(finmod.Lanes):
        def __init__(self, alg, width, leaf):
            widths.append(width)
            super().__init__(alg, width, leaf)

    monkeypatch.setattr(finmod, "Lanes", Recording)
    hit = refute(s, 2, "integral")
    assert widths == [1, finmod.MAX_LANES, finmod.MAX_LANES]  # the 1-element algebra, then two passes
    assert hit == reference_refute(s, 2, "integral")
    assert hit[1] == {n: int(n == "a") for n in names}


def test_refute_takes_a_long_left_side():
    # the left product is split in halves, so it recurses 11 deep, not 1,500
    for s in (Sequent((x,) * 1500, (y,)), Sequent((x,) * 1500, (x,))):
        for cls in ("rl", "integral"):
            assert refute(s, 3, cls) == reference_refute(s, 3, cls), (s, cls)


@pytest.mark.parametrize("text, theory, cls, message", [
    ("x /\\ y => x", Theory.ICRL, "sirmonoid", "operation Meet not in this signature"),
    ("x => f", Theory.CA, "integral", "algebra is not pointed"),
    ("x => x, x", Theory.CA, "integral", "multiple-conclusion sequents need a pointed algebra"),
])
def test_refute_raises_what_the_scalar_loop_raises(text, theory, cls, message):
    s = parse_sequent(text, theory)
    for run in (refute, reference_refute):
        with pytest.raises(ValueError, match=message):
            run(s, 2, cls)
