"""Structural checks on the package source: no dead module-level names or
class members, no import left unread, no oracle internals exported, no line
over 100 columns, and every rule of every theory in exactly one rule
family."""

import ast
from pathlib import Path

import icrl
from icrl import ablg_oracle, lg_oracle, prover

SRC = Path(prover.__file__).parent

# Entry points kept for callers outside the package: the tests and the
# benchmark reset each module's caches between cases.
EXTERNAL = {"clear_caches"}


def _top_level_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_module_level_name_is_used():
    definitions = []  # (module, statement index, name)
    uses = {}  # name -> {(module, statement index)}
    for path in sorted(SRC.glob("*.py")):
        for k, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            for name in _top_level_names(stmt):
                if not (name.startswith("__") and name.endswith("__")) and name not in EXTERNAL:
                    definitions.append((path.name, k, name))
            for name in _referenced(stmt):
                uses.setdefault(name, set()).add((path.name, k))
    # a use inside the defining statement itself (recursion) does not count
    dead = [
        f"{module}: {name}"
        for module, k, name in definitions
        if not uses.get(name, set()) - {(module, k)}
    ]
    assert not dead


def test_every_method_and_property_is_used():
    # a member counts as used when its name is read somewhere in the package
    # outside its own definition; dunder methods are called by the language
    members = []  # (module, name, first line, last line)
    uses = {}  # name -> [(module, line)]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                            members.append((path.name, stmt.name, stmt.lineno, stmt.end_lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((path.name, node.lineno))
    dead = [
        f"{module}: {name}"
        for module, name, first, last in members
        if not any(
            m != module or not first <= line <= last for m, line in uses.get(name, ())
        )
    ]
    assert not dead


def test_every_import_is_read():
    # __init__.py imports to re-export; every other module imports to use
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}: {name}" for name in names if name not in read]
    assert not unread


def test_the_oracles_internals_are_not_exported():
    # the package exports decisions; the normal forms and the procedures
    # behind them stay in their modules, where the benchmark's tracer wraps
    # them by name
    internals = {"LinearForm", "StrictSystem", "abelianize", "strict_infeasible",
                 "semigroup_contains_identity"}
    assert not internals & set(icrl.__all__)
    assert all(hasattr(icrl, name) for name in icrl.__all__)
    assert callable(ablg_oracle.abelianize) and callable(ablg_oracle.strict_infeasible)
    assert callable(lg_oracle.semigroup_contains_identity)


def test_no_source_line_over_100_columns():
    long = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long


def test_every_rule_is_in_exactly_one_family():
    families = {
        "axioms": prover.AXIOMS,
        "context": set(prover.CONTEXT_RULES),
        "split": set(prover.SPLIT_RULES),
        "weakening": prover.WEAKENING,
        "exchange": prover.EXCHANGE,
        "cut": {prover.CUT},
    }
    for theory, rules in prover._RULES.items():
        for rule in rules:
            homes = [name for name, family in families.items() if rule in family]
            assert len(homes) == 1, (theory, rule, homes)


def test_every_stage_table_places_each_rule_once_and_orders_it():
    # search sorts a stage's principals by (group, position), which gives the
    # table's order because every group is one-sided and no principal class
    # sits in two groups on one side
    staged = set(prover.CONTEXT_RULES) | set(prover.SPLIT_RULES)
    for theory, rules in prover._RULES.items():
        stages = prover._CA_STAGES if theory.multiple_conclusion else prover._SINGLE_STAGES
        groups = [[r for r in group if r in rules] for stage in stages for group in stage]
        placed = [rule for group in groups for rule in group]
        assert sorted(placed) == sorted(rules & staged), theory
        homes = {}
        for k, group in enumerate(groups):
            specs = [prover.CONTEXT_RULES.get(r) or prover.SPLIT_RULES[r] for r in group]
            assert len({spec.side for spec in specs}) <= 1, (theory, group)
            for spec in specs:
                assert homes.setdefault((spec.side, spec.connective), k) == k, (theory, group)
        compiled = [
            rule
            for classes in prover._STAGED[theory]
            for _, _, entries in classes.values()
            for rule, _, _ in entries
        ]
        assert sorted(compiled) == sorted(placed), theory
