"""Relatedness measures used to rank stimuli against a query term.

All measures return a score in [0, 1] with rel(x, x) = 1 and
rel(x, y) < 1 for distinct operands.  Inclusion and Levenshtein work on
case-folded keyword strings; path length, Wu-Palmer, Leacock-Chodorow and
Li work on taxonomy concepts.

Leacock-Chodorow and Li are normalized so the identity and range contract
holds: LCH divides the raw -log(d / 2 * maxDepth) score (with the standard
0.5 node-count guard for d = 0) by its d = 0 value; Li divides
e^(-alpha*d) * tanh(beta * depth(lcs)) by tanh(beta * max-operand-depth).
"""

import math
from enum import Enum

from .errors import ValidationError


class Measure(str, Enum):
    INCLUSION = "inclusion"
    LEVENSHTEIN = "levenshtein"
    PATH_LENGTH = "pathlen"
    WU_PALMER = "wupalmer"
    LEACOCK_CHODOROW = "lch"
    LI = "li"


LEXICAL_MEASURES = frozenset({Measure.INCLUSION, Measure.LEVENSHTEIN})
CONCEPT_MEASURES = frozenset(
    {Measure.PATH_LENGTH, Measure.WU_PALMER, Measure.LEACOCK_CHODOROW, Measure.LI}
)

# Measures computed from the undirected path distance (see distance_rel).
DISTANCE_MEASURES = frozenset(
    {Measure.PATH_LENGTH, Measure.LEACOCK_CHODOROW, Measure.LI}
)

LI_ALPHA = 0.2
LI_BETA = 0.6
LCH_ZERO_DISTANCE_GUARD = 0.5


def parse_measure(name):
    try:
        return Measure(name.casefold())
    except ValueError:
        valid = ", ".join(m.value for m in Measure)
        raise ValidationError(f"unknown measure {name!r} (expected one of {valid})")


def _check_nonempty(a, b):
    if not a or not b:
        raise ValidationError("relatedness operands must be non-empty strings")


def inclusion_rel(a, b):
    """1 if equal after case-folding, len(shorter)/len(longer) if one
    contains the other, 0 otherwise."""
    _check_nonempty(a, b)
    a, b = a.casefold(), b.casefold()
    if a == b:
        return 1.0
    short, long_ = sorted((a, b), key=len)
    if short in long_:
        return len(short) / len(long_)
    return 0.0


def levenshtein_distance(a, b):
    """Unit-cost edit distance (insert/delete/substitute).

    Myers' bit-vector algorithm (J. ACM 46(3), 1999), in Hyyro's form for
    the global distance: one column of the DP matrix is held as bit
    vectors of its +1/-1 vertical deltas, one bit per character of the
    pattern (the shorter string), and each character of the text updates
    it in a fixed number of integer operations.  Python ints are
    unbounded, so the vectors are masked to the pattern's width.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq = {}  # character -> bit mask of its positions in the pattern
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, m
    get = peq.get
    for c in a:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_rel(a, b):
    _check_nonempty(a, b)
    a, b = a.casefold(), b.casefold()
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


def distance_rel(measure, g, a, b, d):
    """Path length, Leacock-Chodorow or Li relatedness of concepts `a` and
    `b`, given their undirected distance `d` in the taxonomy."""
    if measure is Measure.PATH_LENGTH:
        return 1.0 / (1.0 + d)
    if measure is Measure.LEACOCK_CHODOROW:
        denom = 2.0 * g.max_depth
        raw = -math.log(max(d, LCH_ZERO_DISTANCE_GUARD) / denom)
        norm = -math.log(LCH_ZERO_DISTANCE_GUARD / denom)
        return max(0.0, raw / norm)
    h = g.depth(g.lcs(a, b))
    raw = math.exp(-LI_ALPHA * d) * math.tanh(LI_BETA * h)
    # Normalizer includes h so DAG anomalies (ancestor deeper than both
    # operands under min-root-distance depth) cannot push the score past 1.
    norm = math.tanh(LI_BETA * max(h, g.depth(a), g.depth(b)))
    return raw / norm


def wu_palmer_rel(g, a, b):
    # Path-based form: on trees this equals 2*depth(lcs)/(depth(a)+depth(b));
    # on DAGs with min-root-distance depth it stays within [0, 1], which the
    # naive depth-ratio form does not.
    lcs = g.lcs(a, b)
    dl = g.depth(lcs)
    da = g.up_distance(a, lcs)
    db = g.up_distance(b, lcs)
    return 2.0 * dl / (da + db + 2.0 * dl)


def relatedness(measure, x, y, graph):
    """Dispatch to the measure matching the operand kind.

    Lexical measures take keyword strings and do not read `graph`; concept
    measures take concept names of the taxonomy `graph`.
    """
    measure = Measure(measure)
    if measure in LEXICAL_MEASURES:
        if measure is Measure.INCLUSION:
            return inclusion_rel(x, y)
        return levenshtein_rel(x, y)
    if measure is Measure.WU_PALMER:
        return wu_palmer_rel(graph, x, y)
    return distance_rel(measure, graph, x, y, graph.shortest_path(x, y))
