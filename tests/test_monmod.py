import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy.solvers.simplex import linprog

from logflat.abgrp import FgAbGroup
from logflat.monoid import FineMonoid, MonoidHom, MonoidIdeal, diagonal, nat_monoid
from logflat import cli, monmod
from logflat.monmod import (
    NotFinitelyGenerated,
    PModule,
    base_change,
    extract_basis,
    is_finitely_generated,
    is_flat,
    sharpen_module,
)


def nat():
    return nat_monoid(1)


def nat2():
    return nat_monoid(2)


def shifted(owner, start):
    return PModule.embedded(owner, [(start, 0)])


class TestMembership:
    def test_shifted_line(self):
        m = shifted(nat(), (2,))
        assert m.contains((5,), 0)
        assert not m.contains((1,), 0)

    def test_maximal_ideal(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)]))
        assert not m.contains((0, 0), 0)
        assert m.contains((2, 1), 0)

    def test_free(self):
        m = PModule.free(nat(), 2)
        assert m.contains((3,), 1)
        assert not m.contains((-1,), 0)


class TestFlat:
    def test_free_is_flat(self):
        assert is_flat(PModule.free(nat(), 3)).flat

    def test_shifted_is_flat(self):
        assert is_flat(shifted(nat(), (2,))).flat

    def test_maximal_ideal_not_flat_with_witness(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)]))
        v = is_flat(m)
        assert not v.flat
        assert v.torsion_free and not v.comparable
        assert set(v.witness) == {(1, 0), (0, 1)}

    def test_principal_ideal_flat(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 1)]))
        assert is_flat(m).flat

    def test_localization_flat(self):
        # Z as an N-module
        m = PModule.localization(nat(), [(1,)])
        assert is_flat(m).flat

    def test_face_localization_flat(self):
        m = PModule.localization(nat2(), [(1, 0)])
        assert is_flat(m).flat

    def test_two_generator_comparable(self):
        # <(2,0),(1,1)> inside N^2 over N^2: common lower bound must be found
        p = nat2()
        m = PModule.embedded(p, [((2, 0), 0), ((1, 1), 0)])
        v = is_flat(m)
        assert not v.flat  # candidates (1,0),(0,0)... no common lower bound in M
        # but the same generators over the bigger module including it are fine
        m2 = PModule.embedded(p, [((2, 0), 0), ((1, 1), 0), ((1, 0), 0)])
        assert is_flat(m2).flat

    def test_group_owner(self):
        z = FineMonoid(FgAbGroup.free(1), [(1,), (-1,)])
        free_orbit = PModule.embedded(z, [((0,), 0)])
        assert is_flat(free_orbit).flat

    def test_group_owner_nonfree_action(self):
        # Z acting through Z/2: not a free action, hence not flat and no basis
        z = FineMonoid(FgAbGroup.free(1), [(1,), (-1,)])
        z2mon = FineMonoid(FgAbGroup(0, (2,)), [(1,)])
        h = MonoidHom(z, z2mon, [(1,), (1,)])
        m = PModule.over_hom(h, [((0,), 0)])
        v = is_flat(m)
        assert not v.flat and not v.torsion_free
        assert not extract_basis(m).ok


class TestBasis:
    def test_shifted_basis(self):
        res = extract_basis(shifted(nat(), (2,)))
        assert res.ok
        assert res.basis == (((2,), 0),)

    def test_free_basis(self):
        res = extract_basis(PModule.free(nat(), 2))
        assert res.ok and len(res.basis) == 2

    def test_ideal_failure(self):
        p = nat2()
        m = PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)]))
        res = extract_basis(m)
        assert not res.ok
        assert set(res.witness) == {(1, 0), (0, 1)}

    def test_reduction_to_minimal(self):
        # generators 3 and 5 over N_{>=2}-style module: minimal rep is 2
        m = PModule.embedded(nat(), [((2,), 0), ((3,), 0), ((5,), 0)])
        res = extract_basis(m)
        assert res.ok
        assert res.basis == (((2,), 0),)

    def test_localization_not_fg(self):
        m = PModule.localization(nat(), [(1,)])
        with pytest.raises(NotFinitelyGenerated):
            extract_basis(m)


class TestFinitelyGenerated:
    def test_examples(self):
        m = shifted(nat(), (2,))
        assert is_finitely_generated(m, [((2,), 0)])
        assert not is_finitely_generated(m, [((3,), 0)])
        f = PModule.free(nat(), 2)
        assert is_finitely_generated(f, [((0,), 0), ((0,), 1)])

    def test_localization(self):
        m = PModule.localization(nat(), [(1,)])
        assert not is_finitely_generated(m, [((0,), 0)])


class TestBaseChange:
    def test_free_stays_free(self):
        h = diagonal(2)
        m = PModule.free(nat(), 2)
        out = base_change(m, h)
        assert out.kind == monmod.FREE
        assert out.owner == h.target
        assert len(out.generators) == 2

    def test_identity(self):
        p = nat()
        m = shifted(p, (2,))
        out = base_change(m, MonoidHom.identity(p))
        assert is_flat(out).flat
        assert out.contains((2,), out.generators[0][1])

    def test_sharpening_collapses_units(self):
        # P = N x Z, M = P itself; M-bar lives over N
        p = FineMonoid(FgAbGroup.free(2), [(1, 0), (0, 1), (0, -1)])
        m = PModule.embedded(p, [((0, 0), 0)])
        mb = sharpen_module(m)
        assert mb.owner.ambient.rank == 1
        assert is_flat(mb).flat

    def test_flatness_preserved(self):
        h = diagonal(2)
        m = shifted(nat(), (1,))
        out = base_change(m, h)
        assert is_flat(out).flat


class TestSharpeningCompatibility:
    def test_agreement_for_unit_free_owner(self):
        p = nat2()
        mods = [
            PModule.from_ideal(MonoidIdeal(p, [(1, 0), (0, 1)])),
            PModule.from_ideal(MonoidIdeal(p, [(1, 1)])),
            PModule.free(p, 2),
        ]
        for m in mods:
            assert is_flat(m).flat == is_flat(sharpen_module(m)).flat


class TestModuleOverSource:
    def test_diagonal_fg_fails_honestly(self):
        # N^3 is not finitely generated over the small diagonal N
        h = MonoidHom(nat(), nat_monoid(3), [(1, 1, 1)])
        assert monmod.module_over_source(h) is None

    def test_mult2(self):
        p = nat()
        h = MonoidHom(p, p, [(2,)])
        m = monmod.module_over_source(h)
        assert m is not None
        v = is_flat(m)
        assert v.flat
        res = extract_basis(m)
        assert res.ok and len(res.basis) == 2

    def test_module_shares_the_image_monoid_of_its_hom(self):
        # one image monoid per hom: its dual cones and functional are
        # computed once for the cover search and the module's membership
        h = MonoidHom(nat2(), nat2(), [(2, 0), (0, 3)])
        m = monmod.module_over_source(h)
        assert m is not None
        assert m.action_image_monoid() is h.image_monoid()

    def test_surjection_not_flat(self):
        h = MonoidHom(nat2(), nat(), [(1,), (1,)])
        m = monmod.module_over_source(h)
        assert m is not None
        assert not is_flat(m).flat



# -- module_over_source against the window search and an exact LP ---------------


def reference_module_over_source(h, window=24):
    """module_over_source without the rank exit: the saturation search alone."""
    p = h.target
    amb = p.ambient
    img = FineMonoid(amb, h.images)

    def covered(x, reps):
        return any(img.member(amb.sub(x, t)) for t in reps)

    reps = [amb.zero()]
    queue = list(reps)
    steps = 0
    while queue:
        t = queue.pop(0)
        for g in p.generators:
            c = amb.add(t, g)
            steps += 1
            if steps > window * max(1, len(p.generators)):
                return None
            if not covered(c, reps):
                reps.append(c)
                queue.append(c)
    return PModule.over_hom(h, [(t, 0) for t in reps])


def in_rational_cone(x, gens, rank):
    """Whether the free coordinates of x, the first ``rank``, are a
    nonnegative rational combination of those of ``gens``: an exact LP.

    With s_i the sign of x_i, maximize sum_i s_i (H lam)_i subject to
    s_i (H lam)_i <= |x_i| and lam >= 0, H having the gens as columns.
    lam = 0 is feasible, so the simplex needs no first phase, and an optimal
    lam meets every bound exactly when x = H lam has a solution."""
    sign = [1 if v >= 0 else -1 for v in x[:rank]]
    a = [[sign[i] * g[i] for g in gens] for i in range(rank)]
    _, lam = linprog([-sum(row[j] for row in a) for j in range(len(gens))],
                     a, [abs(v) for v in x[:rank]])
    return all(sum(v * g[i] for v, g in zip(lam, gens)) == x[i]
               for i in range(rank))


def _agrees_with_reference(h, window=24):
    """The exact search finishes wherever the window search does, with the
    same generators; and it gives None exactly when some generator of P
    lies outside the rational cone of h(Q)."""
    got = monmod.module_over_source(h)
    want = reference_module_over_source(h, window=window)
    if want is not None:
        assert got is not None and got.generators == want.generators
    rank = h.target.ambient.rank
    finite = all(in_rational_cone(g, h.images, rank)
                 for g in h.target.generators)
    assert (got is not None) == finite
    return got


@st.composite
def source_homs(draw):
    """N^k -> P with P in Z^rank (+) torsion, rank 1-3, some P with units;
    each image an N-combination of the generators of P, so zero and
    repeated images occur."""
    rank = draw(st.integers(1, 3))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4)]))
    amb = FgAbGroup(rank, torsion)
    vec = st.tuples(*[st.integers(-1, 2)] * rank,
                    *[st.integers(0, d - 1) for d in torsion])
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    p = FineMonoid(amb, gens)
    k = draw(st.integers(1, 3))
    images = []
    for _ in range(k):
        coeffs = draw(st.lists(st.integers(0, 2), min_size=len(p.generators),
                               max_size=len(p.generators)))
        v = amb.zero()
        for c, g in zip(coeffs, p.generators):
            v = amb.add(v, amb.scale(c, g))
        images.append(v)
    return MonoidHom(nat_monoid(k), p, images)


@settings(max_examples=150, deadline=None)
@given(source_homs(), st.integers(1, 8))
def test_module_over_source_matches_window_search(h, window):
    _agrees_with_reference(h, window)


@pytest.mark.parametrize("h, finite", [
    # equal ranks but Z is not finite over N: -1 is outside the cone of N
    (MonoidHom(nat(), FineMonoid(FgAbGroup.free(1), [(1,), (-1,)]), [(1,)]),
     False),
    (MonoidHom(nat(), nat(), [(2,)]), True),
    (MonoidHom(nat2(), nat(), [(1,), (1,)]), True),
    (MonoidHom(nat(), nat_monoid(3), [(1, 1, 1)]), False),
    # torsion targets: N + Z/3 over N is finite, over the torsion part not;
    # <(1, 1)> in Z + Z/2 is finite over its even multiples
    (MonoidHom(nat(), FineMonoid(FgAbGroup(1, (3,)), [(1, 0), (0, 1)]),
               [(1, 0)]), True),
    (MonoidHom(nat(), FineMonoid(FgAbGroup(1, (2,)), [(1, 1)]), [(2, 0)]),
     True),
    (MonoidHom(nat(), FineMonoid(FgAbGroup(1, (3,)), [(1, 0), (0, 1)]),
               [(0, 1)]), False),
])
def test_module_over_source_explicit_cases(h, finite):
    assert (_agrees_with_reference(h) is not None) == finite


# -- no window left ----------------------------------------------------------------


def test_extract_basis_enumerates_no_window():
    # the principal ideal of the cone over the 8-gon from bench/workloads.py
    verts = [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
    gens = [(x, y, 1) for x, y in verts]
    p = FineMonoid(FgAbGroup.free(3), gens)
    res = extract_basis(PModule.embedded(p, [(gens[0], 0)], kind=monmod.IDEAL))
    assert res.ok and res.basis == ((gens[0], 0),)
    assert res.certificate == {"basis": [(gens[0], 0)], "verified": True}


WINDOW_PARAMETERS = {"window", "cap", "module_window", "search_degree",
                     "budget"}


def _parameters(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                out.append((f"{path.name}:{node.lineno}", arg.arg))
    return out


def test_no_window_parameters():
    src = Path(monmod.__file__).parent
    params = [p for path in sorted(src.glob("*.py")) for p in _parameters(path)]
    assert any(name == "check" for _, name in params)  # the walk sees them
    offenders = [p for p in params if p[1] in WINDOW_PARAMETERS]
    assert not offenders, offenders


def test_only_two_coefficient_fields():
    # a field is a class with ``inv``; the engine runs over Q and F_p only
    src = Path(monmod.__file__).parent
    fields = sorted(
        node.name for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "inv"
                for f in node.body))
    assert fields == ["FieldFp", "FieldQ"]


MIN_BODY_NODES = 10  # below this, bodies like ``return a == b`` may repeat


def _function_bodies(name, source):
    """(module.function, dump of its body without the docstring) for every
    function whose body has at least MIN_BODY_NODES syntax nodes."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if sum(1 for stmt in body for _ in ast.walk(stmt)) >= \
                    MIN_BODY_NODES:
                out.append((f"{name}.{node.name}",
                            ast.dump(ast.Module(body=body, type_ignores=[]))))
    return out


def _duplicates(bodies):
    groups = {}
    for name, dump in bodies:
        groups.setdefault(dump, []).append(name)
    return [names for names in groups.values() if len(names) > 1]


def test_no_two_functions_share_a_body():
    # the check sees a copied body, whatever the docstring and the name
    copy = ('def f(p, n):\n    "One."\n    out = [q * n for q in p]\n'
            '    return sorted(out)\n\n\n'
            'def g(p, n):\n    out = [q * n for q in p]\n'
            '    return sorted(out)\n')
    assert _duplicates(_function_bodies("m", copy)) == [["m.f", "m.g"]]
    src = Path(monmod.__file__).parent
    bodies = [b for path in sorted(src.glob("*.py"))
              for b in _function_bodies(path.stem, path.read_text())]
    assert len(bodies) > 100  # the walk sees the library's functions
    assert not _duplicates(bodies), _duplicates(bodies)


def _stored_attributes(source):
    """(Class.attribute) for every attribute a method stores on its first
    argument, ``self.x = ...`` or ``self.x, self.y = ...``."""
    out = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.args.args):
                continue
            me = fn.args.args[0].arg
            out |= {(cls.name, node.attr) for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == me}
    return out


def _read_attributes(source):
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _defined_functions(source):
    """The name of every function and method defined in the module."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _referenced_names(source):
    """Every name the module loads, as a variable or an attribute, and
    every part of a string constant that is wholly a name or a dotted name
    (how ``bench/spans.TRACED`` names a function), docstrings left out: a
    stale docstring or a word in a message does not keep a function
    alive."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                out |= set(node.value.split("."))
    return out


def _unreferenced(defined_in, read_in):
    """Functions defined in the sources ``defined_in`` whose names no
    source in ``read_in`` refers to; dunder methods and the handlers that
    ``cli`` finds by name are left out."""
    defined = set().union(*(_defined_functions(s) for s in defined_in))
    read = set().union(*(_referenced_names(s) for s in read_in))
    return sorted(name for name in defined - read
                  if not (name.startswith("__") and name.endswith("__"))
                  and not name.startswith(("_build_", "_task_")))


def test_every_defined_function_is_referenced():
    # the check sees a function nothing calls, or one named only in a
    # docstring or inside a message, but not one a string names (a traced
    # span, dotted or not)
    planted = ('def used():\n    "Calls dead() never."\n    return 1\n\n'
               'def traced():\n    return 2\n\n'
               'class C:\n    def method(self):\n        return 3\n\n'
               'def mentioned():\n    return 4\n\n'
               'def dead():\n    if used():\n'
               '        raise ValueError("not mentioned here")\n')
    reader = 'SPANS = [("m", "traced"), ("m", "C.method")]\n'
    assert _unreferenced([planted], [planted, reader]) == ["dead",
                                                           "mentioned"]
    root = Path(monmod.__file__).parents[2]
    sources = [p.read_text() for p in sorted((root / "src").rglob("*.py"))]
    readers = [p.read_text() for d in ("src", "tests", "bench")
               for p in sorted((root / d).rglob("*.py"))]
    assert len(set().union(*map(_defined_functions, sources))) > 300
    assert not _unreferenced(sources, readers), \
        _unreferenced(sources, readers)


_INTEGER_AND_MONOID_LAYERS = ("monoid", "monmod", "qcone", "abgrp")
_RING_LAYERS = ("polyalg", "graded", "chart", "descent", "cli")


def _logflat_imports(source):
    """The logflat modules the source imports from, at any depth:
    ``from .m import``, ``from . import m``, ``from logflat.m import``,
    ``from logflat import m`` and ``import logflat.m``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "logflat"):
            parts = [p for p in (node.module or "").split(".")
                     if p and p != "logflat"]
            out |= {parts[0]} if parts else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("logflat.")}
    return out


def test_integer_and_monoid_layers_import_no_ring_layer():
    # the walk sees every form of import, nested ones included
    planted = ("from . import qcone, polyalg\n"
               "from .abgrp import FgAbGroup\n"
               "import logflat.graded\n"
               "def f():\n    from logflat.chart import ChartData\n"
               "    from logflat import descent\n")
    assert _logflat_imports(planted) == {"qcone", "polyalg", "abgrp",
                                         "graded", "chart", "descent"}
    src = Path(monmod.__file__).parent
    crossing = {name: sorted(_logflat_imports((src / f"{name}.py").read_text())
                             & set(_RING_LAYERS))
                for name in _INTEGER_AND_MONOID_LAYERS}
    assert not any(crossing.values()), crossing


def _zip_loops(source):
    """The line of every comprehension or generator expression whose one
    ``for``, with no ``if``, iterates a ``zip(...)`` call and whose element
    is one binary operator, one comparison, or one ``min``/``max`` call, on
    the loop names alone: a loop that ``map`` over an ``operator`` function
    (or ``min``/``max``) runs in C."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp))
                and len(node.generators) == 1
                and not node.generators[0].ifs):
            continue
        loop, elt = node.generators[0], node.elt
        if not (isinstance(loop.iter, ast.Call)
                and isinstance(loop.iter.func, ast.Name)
                and loop.iter.func.id == "zip"):
            continue
        names = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
        if isinstance(elt, ast.BinOp):
            operands = [elt.left, elt.right]
        elif isinstance(elt, ast.Compare) and len(elt.ops) == 1:
            operands = [elt.left] + elt.comparators
        elif (isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name)
              and elt.func.id in ("min", "max") and not elt.keywords):
            operands = elt.args
        else:
            continue
        if operands and all(isinstance(o, ast.Name) and o.id in names
                            for o in operands):
            out.append(node.lineno)
    return sorted(out)


def test_groebner_and_lattice_loops_use_operator_maps():
    # the check sees each slow form, and leaves alone what map cannot say
    planted = ("a = tuple(x + y for x, y in zip(u, v))\n"
               "b = all(x <= y for x, y in zip(u, v))\n"
               "c = [max(x, y) for x, y in zip(u, v)]\n"
               "d = sum(l * c for l, c in zip(lam, g))\n"
               "e = [x + q * y for x, y in zip(u, v)]\n"
               "f = [x for x, y in zip(u, v)]\n"
               "g = (x - y for x, y in zip(u, v) if x)\n"
               "h = tuple(x - y for x in u for y in v)\n"
               "i = tuple(map(operator.sub, u, v))\n")
    assert _zip_loops(planted) == [1, 2, 3, 4]
    src = Path(monmod.__file__).parent
    slow = {name: _zip_loops((src / f"{name}.py").read_text())
            for name in ("polyalg", "abgrp")}
    assert not any(slow.values()), slow


def test_cli_handlers_match_the_kind_tables():
    # one handler per object and task kind, found by name, and no other
    defined = _defined_functions(Path(cli.__file__).read_text())
    assert {n for n in defined if n.startswith("_build_")} == \
        {f"_build_{kind}" for kind in cli.OBJECT_REFS}
    assert {n for n in defined if n.startswith("_task_")} == \
        {f"_task_{kind}" for kind in cli.TASK_REFS}


def test_every_stored_attribute_is_read():
    # the check sees state that is stored and never read
    planted = ("class C:\n    def __init__(me, a, b):\n"
               "        me.a, me.b = a, b\n\n"
               "    def get(self):\n        return self.a\n")
    assert {f"{c}.{a}" for c, a in _stored_attributes(planted)
            if a not in _read_attributes(planted)} == {"C.b"}
    src = Path(monmod.__file__).parent
    sources = [path.read_text() for path in sorted(src.glob("*.py"))]
    tests = [path.read_text()
             for path in sorted(Path(__file__).parent.glob("*.py"))]
    stored = set().union(*(_stored_attributes(s) for s in sources))
    assert len(stored) > 80  # the walk sees the library's classes
    read = set().union(*(_read_attributes(s) for s in sources + tests))
    unread = sorted(f"{c}.{a}" for c, a in stored if a not in read)
    assert not unread, unread
