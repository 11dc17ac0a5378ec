"""Shared fixture tables for CLI and finmod tests, and the reference census:
finmod's enumerator as it was before pruning, kept to test the pruned one."""

import itertools

from icrl import finmod
from icrl.finmod import FiniteAlgebra, _tbl


def two_chain_dict():
    return {
        "size": 2,
        "e": 1,
        "leq": [1, 1, 0, 1],
        "meet": [0, 0, 0, 1],
        "join": [0, 1, 1, 1],
        "fuse": [0, 0, 0, 1],
        "ldiv": [1, 1, 0, 1],
        "rdiv": [1, 0, 1, 1],
    }


def partial_orders(n: int):
    """All labeled partial orders on 0..n-1 as leq tables: each pair i < j is
    incomparable, i below j or j below i, and transitivity filters."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in itertools.product((0, 1, 2), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), rel in zip(pairs, combo):
            if rel == 1:
                leq[i][j] = True
            elif rel == 2:
                leq[j][i] = True
        if all(
            leq[i][k] or not leq[j][k]
            for i in range(n) for j in range(n) if leq[i][j] for k in range(n)
        ):
            yield _tbl(leq)


def lattices(n: int):
    """All labeled lattice orders on 0..n-1 as (leq, meet, join) triples."""
    for leq in partial_orders(n):
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        lattice = True
        for i in range(n):
            if not lattice:
                break
            for j in range(n):
                lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
                glb = [k for k in lower if all(leq[m][k] for m in lower)]
                upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
                lub = [k for k in upper if all(leq[k][m] for m in upper)]
                if len(glb) != 1 or len(lub) != 1:
                    lattice = False
                    break
                meet[i][j] = glb[0]
                join[i][j] = lub[0]
        if lattice:
            yield leq, _tbl(meet), _tbl(join)


def lattice_reps(n: int):
    """The first labeled lattice of each isomorphism class, found by the
    lexicographically least order table over all n! relabelings."""
    seen = set()
    for leq, meet, join in lattices(n):
        best = None
        for perm in itertools.permutations(range(n)):
            inv = [0] * n
            for i, p in enumerate(perm):
                inv[p] = i
            serial = tuple(leq[inv[x]][inv[y]] for x in range(n) for y in range(n))
            if best is None or serial < best:
                best = serial
        if best not in seen:
            seen.add(best)
            yield leq, meet, join


def fill_fuse(n, leq, meet, join, jis, decomp, bottom, e):
    """Every monotone assignment on join-irreducible pairs, without bounds."""
    cells = [(j, k) for j in jis for k in jis]

    def joined(values, x, y):
        acc = bottom
        for j in decomp[x]:
            for k in decomp[y]:
                acc = join[acc][values[(j, k)]]
        return acc

    def assign(idx, values):
        if idx == len(cells):
            fuse = [[joined(values, x, y) for y in range(n)] for x in range(n)]
            alg = finmod._finish(n, e, leq, _tbl(fuse), meet, join)
            if alg is not None:
                yield alg
            return
        j, k = cells[idx]
        for v in range(n):
            ok = True
            for (j2, k2), v2 in values.items():
                if leq[j2][j] and leq[k2][k] and not leq[v2][v]:
                    ok = False
                    break
                if leq[j][j2] and leq[k][k2] and not leq[v][v2]:
                    ok = False
                    break
            if ok:
                values[(j, k)] = v
                yield from assign(idx + 1, values)
                del values[(j, k)]

    yield from assign(0, {})


def canonical_form(a: FiniteAlgebra):
    """The lexicographically least serialization over all n! relabelings."""
    n = a.size
    tables = [t for t in (a.meet, a.join, a.fuse, a.ldiv, a.rdiv) if t is not None]
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        serial = [perm[a.e], -1 if a.f is None else perm[a.f]]
        if a.leq is not None:
            serial.extend(a.leq[inv[x]][inv[y]] for x in range(n) for y in range(n))
        for t in tables:
            serial.extend(perm[t[inv[x]][inv[y]]] for x in range(n) for y in range(n))
        key = tuple(serial)
        if best is None or key < best:
            best = key
    return best


def _reference_rl(n: int, integral_only: bool):
    for leq, meet, join in lattice_reps(n):
        bottom = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
        top = next(x for x in range(n) if all(leq[y][x] for y in range(n)))
        jis = finmod._join_irreducibles(n, leq, join)
        decomp = [tuple(j for j in jis if leq[j][x]) for x in range(n)]
        for e in [top] if integral_only else range(n):
            yield from fill_fuse(n, leq, meet, join, jis, decomp, bottom, e)


def reference_algebras(n: int, cls: str) -> tuple[FiniteAlgebra, ...]:
    """The unpruned census: every candidate is built, and the first of each
    isomorphism class is kept, judged by its canonical form."""
    gen = {
        "rl": lambda: _reference_rl(n, integral_only=False),
        "integral": lambda: _reference_rl(n, integral_only=True),
        # finmod builds these without pruning: sirmonoids over the orders
        # that partial_orders checks, casari algebras from the integral census
        "sirmonoid": lambda: finmod._enumerate_sirmonoids(n),
        "casari": lambda: finmod._enumerate_casari(n),
    }[cls]()
    seen = set()
    out = []
    for alg in gen:
        key = canonical_form(alg)
        if key not in seen:
            seen.add(key)
            out.append(alg)
    return tuple(out)
