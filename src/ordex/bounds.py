"""Symbolic asymptotic bounds for extremal functions of small patterns.

Upper bounds for bipartite patterns come from a bounded search over
reverse applications of edge/vertex stripping rules, each with a known
penalty on the bound, down to two base cases: patterns covered by a
generalized matching (linear) and the sailboat pattern (linear times a
subexponential factor).  Every derivation step records the rule, the
symmetry variant it fired on, its parameters, its canonical source and
its result, so traces replay exactly.

Reductions and base cases alike are entries of the ordered ``_RULES``
table: the enumerator, the bound it gives the parent and its caveats;
a base case also names its terminal.  The search and the replay read
every rule through that entry alone, so a new reduction or base case
(for one with a published proof, its source named in the enumerator's
docstring) is one enumerator and one entry.  Likewise each n log n
lower-bound witness is one row of ``_NONLINEAR_WITNESSES``.

The search memo is a process-wide ``functools.lru_cache`` keyed by
(canonical pattern, depth), shared by every call.  That is exact because
the search result is a pure function of that key, and thread-safe
because the cached candidates are immutable: two threads that miss on
the same key compute equal values, and either may be kept.

Bounds are antichains of terms n^a (log n)^b, optionally carrying a
subexponential factor 2^(O(sqrt(log n log log n))), compared first by
the exponent of n, then by the subexponential flag (it beats any power
of log), then by the log exponent.  Logarithms are binary throughout.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import generalized_matching, keszegh_h, sailboat
from .containment import contains
from .formats import parse_graph, serialize_graph
from .graphs import (BIPARTITE, CYCLIC, ORDERED, GraphValueError, PatternGraph,
                     bipartite_graph, canonical_variant, induced_subgraph,
                     interval_chromatic_number, remove_isolated_vertices,
                     underlying_shortest_cycle, variants)

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class BoundTerm:
    """One summand n^a (log n)^b, optionally times the subexponential factor.

    Comparisons go through key(); the field order alone would rank a
    log power above the subexponential factor.
    """

    n_exp: Fraction
    log_exp: int = 0
    subexp: bool = False

    def key(self):
        # Total asymptotic order: the subexponential factor dominates
        # every power of log.
        return (self.n_exp, self.subexp, self.log_exp)

    def dominates(self, other: "BoundTerm") -> bool:
        # Componentwise; n^(4/3) and n log^5 stay incomparable even
        # though the former grows faster, so a term set keeps both.
        return (self.n_exp >= other.n_exp and self.log_exp >= other.log_exp
                and self.subexp >= other.subexp)

    def as_dict(self):
        return {"n_exp": f"{self.n_exp.numerator}/{self.n_exp.denominator}",
                "log_exp": self.log_exp, "subexp": self.subexp}

    def __str__(self):
        s = f"n^{self.n_exp}" if self.n_exp != 1 else "n"
        if self.n_exp == 0:
            s = "1"
        if self.log_exp:
            s += f"*log^{self.log_exp}" if self.log_exp > 1 else "*log"
        if self.subexp:
            s += "*subexp"
        return s


LINEAR = BoundTerm(Fraction(1))
CONSTANT = BoundTerm(Fraction(0))
QUADRATIC = BoundTerm(Fraction(2))


@dataclass(frozen=True)
class AsymptoticBound:
    """Max of a dominance-free set of terms, as an upper or lower bound."""

    terms: tuple[BoundTerm, ...]
    direction: str

    @staticmethod
    def of(terms, direction: str) -> "AsymptoticBound":
        terms = set(terms)
        kept = [t for t in terms
                if not any(o != t and o.dominates(t) for o in terms)]
        return AsymptoticBound(tuple(sorted(kept, key=BoundTerm.key,
                                            reverse=True)), direction)

    @property
    def dominant(self) -> BoundTerm:
        return self.terms[0]

    def as_dict(self):
        return {"direction": self.direction,
                "terms": [t.as_dict() for t in self.terms]}

    def __str__(self):
        return " + ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class DerivationStep:
    """One rule firing: which variant of the source it matched and what came out."""

    rule: str
    source: str
    result: str
    variant: tuple[str, ...] = ()
    params: tuple = ()
    transform: str = ""
    caveats: tuple[str, ...] = ()

    def as_dict(self):
        d = {"rule": self.rule, "from": self.source.strip(),
             "to": self.result.strip(), "transform": self.transform}
        if self.variant:
            d["variant"] = list(self.variant)
        if self.params:
            d["params"] = list(self.params)
        if self.caveats:
            d["caveats"] = list(self.caveats)
        return d


@dataclass(frozen=True)
class Derivation:
    """Replayable justification: rule steps in preorder plus base-case ids."""

    steps: tuple[DerivationStep, ...]
    terminal: str

    def as_dict(self):
        return {"steps": [s.as_dict() for s in self.steps],
                "terminal": self.terminal}


@dataclass(frozen=True)
class BoundResult:
    bound: AsymptoticBound
    derivation: Derivation
    no_derivation: bool = False

    def as_dict(self):
        d = self.bound.as_dict()
        d["derivation"] = self.derivation.as_dict()["steps"]
        d["terminal"] = self.derivation.terminal
        d["no_derivation"] = self.no_derivation
        return d


# ---------------------------------------------------------------------------
# Rule applications (shrinking direction)
# ---------------------------------------------------------------------------
# Each enumerator takes a concrete bipartite pattern and yields
# (children, params) pairs, one child for most rules and two for the
# split, and one recorded result for a base case; rules are coded
# against one orientation and reach the mirror configurations through
# the symmetry variants.


def _drop_columns(g: PatternGraph, cols) -> PatternGraph:
    keep = [v for v in range(1, g.n_v + 1) if v not in set(cols)]
    return induced_subgraph(g, range(1, g.n_u + 1), keep)


def _column_neighbours(g: PatternGraph):
    """The edge set, and for each column the rows adjacent to it."""
    col_nbrs = [[] for _ in range(g.n_v + 1)]
    for u, v in g.edges:
        col_nbrs[v].append(u)
    return set(g.edges), col_nbrs


def _strip_appended_leaf(g: PatternGraph):
    """Last row has degree one and shares its neighbor with the row before."""
    last = g.n_u
    nbrs = [v for u, v in g.edges if u == last]
    if len(nbrs) == 1 and (last - 1, nbrs[0]) in set(g.edges):
        yield (induced_subgraph(g, range(1, last), range(1, g.n_v + 1)),), ()


def _strip_inserted_leaf(g: PatternGraph):
    """Interior degree-one column whose two flanking columns share its neighbor."""
    eset, col_nbrs = _column_neighbours(g)
    for j in range(2, g.n_v):
        if len(col_nbrs[j]) != 1:
            continue
        u = col_nbrs[j][0]
        if (u, j - 1) in eset and (u, j + 1) in eset:
            yield (_drop_columns(g, [j]),), (j,)


def _split_shared_edge(g: PatternGraph):
    """Edge (x, y) such that every edge stays in the low or high block."""
    for x, y in g.edges:
        if (x, y) == (1, 1) or (x, y) == (g.n_u, g.n_v):
            continue
        if all((u <= x and v <= y) or (u >= x and v >= y) for u, v in g.edges):
            low = induced_subgraph(g, range(1, x + 1), range(1, y + 1))
            high = induced_subgraph(g, range(x, g.n_u + 1), range(y, g.n_v + 1))
            yield (low, high), (x, y)


def _strip_isolated(g: PatternGraph):
    du, dv = g.degrees()
    if 0 in du or 0 in dv:
        yield (remove_isolated_vertices(g)[0],), ()


def _strip_guarded_leaf(g: PatternGraph):
    """Degree-one column between consecutive columns, in the four-edge
    configuration that costs one log factor to remove."""
    eset, col_nbrs = _column_neighbours(g)
    for j in range(2, g.n_v):
        if len(col_nbrs[j]) != 1:
            continue
        u0 = col_nbrs[j][0]
        if (u0, j + 1) not in eset:
            continue
        for u1 in range(1, g.n_u + 1):
            if u1 != u0 and (u1, j - 1) in eset and (u1, j + 1) in eset:
                yield (_drop_columns(g, [j]),), (u0, u1, j)
                break


def _strip_leaf_pair(g: PatternGraph):
    """Two adjacent interior degree-one columns flanked by their owners'
    other edges; removing both costs log squared."""
    eset, col_nbrs = _column_neighbours(g)
    for j in range(2, g.n_v - 1):
        if len(col_nbrs[j]) != 1 or len(col_nbrs[j + 1]) != 1:
            continue
        u0 = col_nbrs[j][0]
        u1 = col_nbrs[j + 1][0]
        if u0 == u1:
            continue
        if (u0, j - 1) in eset and (u1, j + 2) in eset:
            yield (_drop_columns(g, [j, j + 1]),), (u0, u1, j)


# ---------------------------------------------------------------------------
# Base cases
# ---------------------------------------------------------------------------

_MAX_COVER_ROWS = 7


@lru_cache(maxsize=4096)
def _matching_cover(g: PatternGraph):
    """The smallest generalized matching containing g, as the one firing
    ``((matching,), (m, *pi))``, or () when there is none.

    Column degrees above one rule a cover out immediately.  Otherwise
    matchings on exactly the row count of g are generated for every
    block size up to the maximum row degree and every permutation, in
    ascending (block size, permutation) order, and tested by
    containment.
    """
    du, dv = g.degrees()
    if (not g.edges or any(d > 1 for d in dv) or g.n_u > _MAX_COVER_ROWS
            or 0 in du):
        return ()
    k = g.n_u
    for m in range(max(1, -(-g.n_v // k)), max(du) + 1):
        for pi in itertools.permutations(range(1, k + 1)):
            matching = generalized_matching(m, pi, BIPARTITE)
            if contains(matching, g) is not None:
                return (((matching,), (m,) + pi),)
    return ()


@lru_cache(maxsize=1)
def _sailboat_canon() -> PatternGraph:
    return canonical_variant(sailboat())


def _sailboat_case(g: PatternGraph):
    """The canonical sailboat itself."""
    if g == _sailboat_canon():
        yield (g,), ()


def _plus_linear(terms: frozenset) -> frozenset:
    return terms | {LINEAR}


def _times_log(power: int):
    def apply(terms: frozenset) -> frozenset:
        return frozenset(BoundTerm(t.n_exp, t.log_exp + power, t.subexp)
                         for t in terms)
    return apply


@dataclass(frozen=True)
class _Rule:
    """One judgement: its enumerator, the bound it gives the parent (the
    text a trace shows and the map from the union of the children's
    terms to the parent's), caveats, and the param suffix each child's
    step records, in the order the enumerator yields the children.

    A rule that sets ``terminal`` is a base case with that id: its
    enumerator yields ``((result,), params)``, the step records
    ``result`` as yielded (neither canonicalised nor searched), it fires
    at any depth, and its ``terms`` ignores the children.
    """

    enumerator: Callable
    transform: str
    terms: Callable[[frozenset], frozenset]
    caveats: tuple[str, ...] = ()
    sides: tuple[tuple[str, ...], ...] = ((),)
    terminal: str = ""


_RULES = {
    "sailboat_case": _Rule(_sailboat_case, "n * subexponential factor",
                           lambda _: frozenset({BoundTerm(Fraction(1), 0, True)}),
                           terminal="sailboat"),
    "cover_by_matching": _Rule(_matching_cover, "linear base case",
                               lambda _: frozenset({LINEAR}),
                               terminal="generalized-matching"),
    "strip_appended_leaf": _Rule(_strip_appended_leaf, "bound + n", _plus_linear),
    "strip_isolated": _Rule(_strip_isolated, "bound + n", _plus_linear),
    # Stated for single-part hosts; applied to two-part patterns as well,
    # flagged so a reader can discount those steps.
    "strip_inserted_leaf": _Rule(_strip_inserted_leaf, "2 * bound",
                                 lambda terms: terms,
                                 caveats=("rule-proved-for-single-part-hosts",)),
    "split_shared_edge": _Rule(_split_shared_edge, "bound(low) + bound(high)",
                               lambda terms: terms, sides=(("low",), ("high",))),
    "strip_guarded_leaf": _Rule(_strip_guarded_leaf, "bound * log n",
                                _times_log(1)),
    "strip_leaf_pair": _Rule(_strip_leaf_pair, "bound * log^2 n", _times_log(2)),
}


# ---------------------------------------------------------------------------
# Upper bound search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Candidate:
    terms: frozenset
    steps: tuple
    terminal: str

    def order_key(self):
        bound_key = tuple(sorted((t.key() for t in self.terms), reverse=True))
        return (bound_key, len(self.steps),
                tuple((s.rule, s.source, s.result, s.params) for s in self.steps))


def _best(a: _Candidate | None, b: _Candidate) -> _Candidate:
    """The better candidate; of two with equal keys, the first."""
    return b if a is None else min(a, b, key=_Candidate.order_key)


@lru_cache(maxsize=4096)
def _search_upper(canon: PatternGraph, depth: int) -> _Candidate | None:
    """Best candidate for a canonical pattern within the depth cap.

    Every rule is tried on every symmetry variant, the reductions only
    while depth remains.  A pure function of its arguments: every child
    is searched by its own canonical form at depth - 1, and ties between
    candidates are broken by a fixed iteration order, so a cached result
    is the one a fresh search would return.
    """
    text = serialize_graph(canon)
    best = None
    for ops, variant in variants(canon):
        for name, rule in _RULES.items():
            if depth <= 0 and not rule.terminal:
                continue
            for children, params in rule.enumerator(variant):
                steps, terms, terminals = (), frozenset(), []
                for child, side in zip(children, rule.sides):
                    if rule.terminal:
                        sub = _Candidate(frozenset(), (), rule.terminal)
                    else:
                        child = canonical_variant(child)
                        sub = _search_upper(child, depth - 1)
                        if sub is None:
                            break
                    steps += (DerivationStep(
                        name, text, serialize_graph(child), variant=ops,
                        params=params + side, transform=rule.transform,
                        caveats=rule.caveats),) + sub.steps
                    terms |= sub.terms
                    terminals.append(sub.terminal)
                else:
                    best = _best(best, _Candidate(rule.terms(terms), steps,
                                                  _join_terminals(*terminals)))
    return best


def _join_terminals(*terminals: str) -> str:
    """The distinct base-case ids of the terminals, in first-seen order."""
    return ";".join(dict.fromkeys(";".join(terminals).split(";")))


def derive_upper_bound(pattern: PatternGraph, depth: int = 12) -> BoundResult:
    """Best upper bound found for the two-part extremal function of a
    bipartite pattern, with a replayable derivation.

    When no chain of rules reaches a base case within the depth cap, the
    result is the trivial quadratic bound with ``no_derivation`` set;
    that flag distinguishes an engine limit from a derived fact.  Depth
    0 tries the base cases only; a negative depth is refused.

    Searches are memoized across calls by (canonical pattern, depth), so
    a repeated or overlapping query reuses earlier subresults; the
    answer is the same as from a cold search.
    """
    if depth < 0:
        raise GraphValueError("derivation depth must be non-negative")
    if pattern.flavor != BIPARTITE:
        raise GraphValueError(
            "upper bound derivation takes bipartite patterns; classify ordered "
            "patterns first and convert the two-interval ones")
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    canon = canonical_variant(pattern)
    found = _search_upper(canon, depth)
    if found is None:
        return BoundResult(AsymptoticBound.of({QUADRATIC}, UPPER),
                           Derivation((), "none"), no_derivation=True)
    return BoundResult(AsymptoticBound.of(found.terms, UPPER),
                       Derivation(found.steps, found.terminal))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay_derivation(pattern: PatternGraph, derivation: Derivation) -> bool:
    """Re-run every recorded step and confirm it reproduces its output.

    Checks that the chain starts at the canonical form of the pattern,
    that each step's source was produced earlier, and that re-applying
    the rule (a reduction or a base case) with the recorded variant and
    parameters yields the recorded result.  A forged step is refused,
    never raised on.
    """
    if not derivation.steps:
        return False
    produced = {serialize_graph(canonical_variant(pattern))}
    for step in derivation.steps:
        if step.source not in produced or not _replay_step(step):
            return False
        produced.add(step.result)
    return True


def _replay_step(step: DerivationStep) -> bool:
    source = parse_graph(step.source)
    variant = next((image for ops, image in variants(source)
                    if ops == tuple(step.variant)), None)
    rule = _RULES.get(step.rule)
    if variant is None or rule is None:
        return False
    for children, params in rule.enumerator(variant):
        for child, side in zip(children, rule.sides):
            if params + side == tuple(step.params):
                if not rule.terminal:
                    child = canonical_variant(child)
                return serialize_graph(child) == step.result
    return False


# ---------------------------------------------------------------------------
# Classification and lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    """Coarse placement of a pattern by its interval chromatic number."""

    kind: str  # "quadratic" | "bipartite" | "sailboat"
    chi: int
    density_coefficient: Fraction | None = None

    def as_dict(self):
        d = {"kind": self.kind, "chi": self.chi}
        if self.density_coefficient is not None:
            d["density_coefficient"] = (
                f"{self.density_coefficient.numerator}"
                f"/{self.density_coefficient.denominator}")
        return d


def ordered_to_bipartite(pattern: PatternGraph) -> PatternGraph:
    """Split a two-interval ordered pattern into its bipartite form.

    The cut goes right after the last left endpoint; interior isolated
    vertices therefore land in the second part.
    """
    if pattern.flavor != ORDERED:
        raise GraphValueError("conversion starts from an ordered pattern")
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    split = max(a for a, b in pattern.edges)
    if any(b <= split for a, b in pattern.edges):
        raise GraphValueError("pattern has no two-interval decomposition")
    edges = [(a, b - split) for a, b in pattern.edges]
    return bipartite_graph(split, pattern.n_u - split, edges)


def bipartite_to_ordered(pattern: PatternGraph) -> PatternGraph:
    """Concatenate the parts of a bipartite pattern into one ordered set."""
    if pattern.flavor != BIPARTITE:
        raise GraphValueError("conversion starts from a bipartite pattern")
    edges = [(u, pattern.n_u + v) for u, v in pattern.edges]
    return PatternGraph(ORDERED, pattern.n_u + pattern.n_v, 0, tuple(edges))


def classify_pattern(pattern: PatternGraph) -> Classification:
    """Quadratic class, bipartite class, or the sailboat special case.

    Ordered patterns with interval chromatic number at least 3 have a
    quadratic extremal function with leading density
    (1 - 1/(chi - 1)) * n^2 / 2; the rest reduce to bipartite form.
    """
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    if pattern.flavor == CYCLIC:
        raise GraphValueError("classification covers ordered and bipartite patterns")
    if pattern.flavor == ORDERED:
        chi = interval_chromatic_number(pattern)
        if chi >= 3:
            coeff = Fraction(chi - 2, 2 * (chi - 1))
            return Classification("quadratic", chi, coeff)
        bip = ordered_to_bipartite(pattern)
    else:
        chi = 2
        bip = pattern
    if canonical_variant(bip) == _sailboat_canon():
        return Classification("sailboat", chi)
    return Classification("bipartite", chi)


# Rows (witness, rule, params, transform, terminal): a pattern of the
# witness's flavor that contains it is at least n log n.  H_1 and H_2
# are the non-linear bipartite family; the ordered row is the
# four-vertex pattern avoided by the doubling-distance host.
_NONLINEAR_WITNESSES = (
    (keszegh_h(1), "contains_nonlinear_family", (1,),
     "tripling-distance host", "nonlinear-family:1"),
    (keszegh_h(2), "contains_nonlinear_family", (2,),
     "tripling-distance host", "nonlinear-family:2"),
    (PatternGraph(ORDERED, 4, 0, ((1, 3), (1, 4), (2, 4))),
     "contains_nonlinear_ordered", (), "doubling-distance host",
     "nonlinear-ordered"),
)


def derive_lower_bound(pattern: PatternGraph) -> BoundResult:
    """Best lower bound from the known sources, with its witness recorded.

    Sources: a cycle of length k in the underlying graph gives
    n^(1 + 1/(k-1)); the first ``_NONLINEAR_WITNESSES`` row of the
    pattern's flavor that the pattern contains gives n log n; otherwise
    the constant floor.
    """
    if not pattern.edges:
        raise GraphValueError("pattern graphs need at least one edge")
    text = serialize_graph(pattern)
    candidates = [(CONSTANT,
                   Derivation((), "constant-floor"))]
    k = underlying_shortest_cycle(pattern)
    if k is not None:
        term = BoundTerm(Fraction(1) + Fraction(1, k - 1))
        step = DerivationStep("cycle_in_underlying_graph", text, text,
                              params=(k,),
                              transform="random construction purged of "
                                        f"{k}-cycles")
        candidates.append((term, Derivation((step,), f"cycle:{k}")))
    for witness, rule, params, transform, terminal in _NONLINEAR_WITNESSES:
        if (witness.flavor == pattern.flavor
                and witness.n_edges <= pattern.n_edges
                and contains(pattern, witness) is not None):
            step = DerivationStep(rule, text, serialize_graph(witness),
                                  params=params, transform=transform)
            candidates.append((BoundTerm(Fraction(1), 1),
                               Derivation((step,), terminal)))
            break
    term, derivation = max(candidates, key=lambda c: c[0].key())
    return BoundResult(AsymptoticBound.of({term}, LOWER), derivation)


def lift_bipartite_to_ordered(bound: AsymptoticBound) -> AsymptoticBound:
    """Translate a two-part upper bound into a single-part one.

    Terms that grow faster than linearly pass through unchanged; the
    rest pay one log factor for the dyadic layer decomposition of the
    host.  The shortcut does not apply to subexponential-factor terms,
    so those pay the log as well.
    """
    if bound.direction != UPPER:
        raise GraphValueError("only upper bounds lift")
    lifted = []
    for t in bound.terms:
        if t.n_exp > 1 and not t.subexp:
            lifted.append(t)
        else:
            lifted.append(BoundTerm(t.n_exp, t.log_exp + 1, t.subexp))
    return AsymptoticBound.of(lifted, UPPER)
