"""Independent cross-checks for the oracle tests."""

from icrl.lg_oracle import concat_words


def bfs_identity_oracle(gens, depth: int) -> bool:
    """Sound but incomplete closure check: products of at most `depth` generators.

    An independent cross-check for the automaton answer of
    `lg_oracle.semigroup_contains_identity`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = set(gens)
    frontier = set(gens)
    seen = set(frontier)
    for _ in range(depth - 1):
        if () in frontier:
            return True
        frontier = {concat_words(w, g) for w in frontier for g in gens} - seen
        seen |= frontier
    return () in seen
