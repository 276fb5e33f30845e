"""Brute-force enumeration of monoid elements, an oracle for the tests.

The library decides membership and decomposes over free bases exactly and
never enumerates; the tests compare it against these windows."""


def elements_up_to(mon, degree):
    """All N-combinations of the generators of ``mon`` with total
    multiplicity <= degree, sorted."""
    amb = mon.ambient
    out = {amb.zero()}
    frontier = {amb.zero()}
    for _ in range(degree):
        nxt = {amb.add(x, g) for x in frontier for g in mon.generators}
        frontier = nxt - out
        out |= nxt
    return sorted(out)


def basis_up_to(fs, degree):
    """The basis elements of the free basis ``fs`` among the elements of its
    target of generator-degree <= degree, sorted."""
    return [x for x in elements_up_to(fs.hom.target, degree)
            if fs.contains(x)]
