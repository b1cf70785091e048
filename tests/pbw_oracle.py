"""Normal ordering in U(sl2) letter by letter: the oracle of ``PBWElement``'s
product, which straightens through memoized monomial tables instead.

A word is a tuple of the letters "E", "F" and "H".  The first adjacent pair
out of the order E < F < H is rewritten as the swapped pair plus its
commutator, using only

    [H, E] = 2E,    [H, F] = -2F,    [E, F] = H,

until every word is a normal-ordered monomial E^e F^f H^h.
"""

from racahlab.gaussian import GaussianRational

# y x = x y + n * letter, where [y, x] = n * letter, for each pair y x out of order
_SWAPS = {("F", "E"): (-1, "H"), ("H", "E"): (2, "E"), ("H", "F"): (-2, "F")}


def word(e: int, f: int, h: int) -> tuple[str, ...]:
    return ("E",) * e + ("F",) * f + ("H",) * h


def normal_order(
    words: dict[tuple[str, ...], GaussianRational],
) -> dict[tuple[int, int, int], GaussianRational]:
    """The normal-ordered form of a sum of words, as (e, f, h) -> coefficient."""
    todo = dict(words)
    out: dict[tuple[int, int, int], GaussianRational] = {}
    while todo:
        w, c = todo.popitem()
        for k in range(len(w) - 1):
            swap = _SWAPS.get(w[k : k + 2])
            if swap is not None:
                n, letter = swap
                head, tail = w[:k], w[k + 2 :]
                for new, coeff in ((head + (w[k + 1], w[k]) + tail, c), (head + (letter,) + tail, c * n)):
                    todo[new] = todo.get(new, 0) + coeff
                break
        else:
            key = (w.count("E"), w.count("F"), w.count("H"))
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def product(x: dict, y: dict) -> dict[tuple[int, int, int], GaussianRational]:
    """The normal-ordered product of two maps (e, f, h) -> coefficient."""
    words: dict[tuple[str, ...], GaussianRational] = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            w = word(*m1) + word(*m2)
            words[w] = words.get(w, 0) + c1 * c2
    return normal_order(words)
