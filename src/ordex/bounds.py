"""Symbolic asymptotic bounds for extremal functions of small patterns.

Upper bounds for bipartite patterns come from a bounded search over
reverse applications of edge/vertex stripping rules, each with a known
penalty on the bound, down to two base cases: patterns covered by a
generalized matching (linear) and the sailboat pattern (linear times a
subexponential factor).  Every derivation step records the rule, the
symmetry variant it fired on, its parameters and both canonical forms,
so traces replay exactly.

Bounds are antichains of terms n^a (log n)^b, optionally carrying a
subexponential factor 2^(O(sqrt(log n log log n))), compared first by
the exponent of n, then by the subexponential flag (it beats any power
of log), then by the log exponent.  Logarithms are binary throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import generalized_matching, keszegh_h, sailboat
from .containment import contains
from .formats import parse_graph, serialize_graph
from .graphs import (BIPARTITE, CYCLIC, ORDERED, GraphValueError, PatternGraph,
                     VARIANT_SEQUENCES, apply_variant, bipartite_graph,
                     canonical_variant, induced_subgraph,
                     interval_chromatic_number, remove_isolated_vertices,
                     underlying_shortest_cycle)

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
                if not any(o is not t and o.dominates(t) and o.key() != t.key()
                           for o in terms)]
        dedup = sorted(set(kept), key=BoundTerm.key, reverse=True)
        return AsymptoticBound(tuple(dedup), direction)

    @property
    def dominant(self) -> BoundTerm:
        return self.terms[0]

    def sort_key(self):
        return tuple(t.key() for t in self.terms)

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
# (child pattern, params) pairs; rules are coded against one orientation
# and reach the mirror configurations through the symmetry variants.


def _drop_columns(g: PatternGraph, cols) -> PatternGraph:
    keep = [v for v in range(1, g.n_v + 1) if v not in set(cols)]
    return induced_subgraph(g, range(1, g.n_u + 1), keep)


def _strip_appended_leaf(g: PatternGraph):
    """Last row has degree one and shares its neighbor with the row before."""
    if g.n_u < 2:
        return
    last = g.n_u
    eset = set(g.edges)
    nbrs = [v for u, v in g.edges if u == last]
    if len(nbrs) != 1:
        return
    w = nbrs[0]
    if (last - 1, w) in eset:
        child = induced_subgraph(g, range(1, last), range(1, g.n_v + 1))
        yield child, ()


def _strip_inserted_leaf(g: PatternGraph):
    """Interior degree-one column whose two flanking columns share its neighbor."""
    eset = set(g.edges)
    col_nbrs = [[] for _ in range(g.n_v + 1)]
    for u, v in g.edges:
        col_nbrs[v].append(u)
    for j in range(2, g.n_v):
        if len(col_nbrs[j]) != 1:
            continue
        u = col_nbrs[j][0]
        if (u, j - 1) in eset and (u, j + 1) in eset:
            yield _drop_columns(g, [j]), (j,)


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
        child, _ = remove_isolated_vertices(g)
        yield child, ()


def _strip_guarded_leaf(g: PatternGraph):
    """Degree-one column between consecutive columns, in the four-edge
    configuration that costs one log factor to remove."""
    eset = set(g.edges)
    col_nbrs = [[] for _ in range(g.n_v + 1)]
    for u, v in g.edges:
        col_nbrs[v].append(u)
    for j in range(2, g.n_v):
        if len(col_nbrs[j]) != 1:
            continue
        u0 = col_nbrs[j][0]
        if (u0, j + 1) not in eset:
            continue
        for u1 in range(1, g.n_u + 1):
            if u1 != u0 and (u1, j - 1) in eset and (u1, j + 1) in eset:
                yield _drop_columns(g, [j]), (u0, u1, j)
                break


def _strip_leaf_pair(g: PatternGraph):
    """Two adjacent interior degree-one columns flanked by their owners'
    other edges; removing both costs log squared."""
    eset = set(g.edges)
    col_nbrs = [[] for _ in range(g.n_v + 1)]
    for u, v in g.edges:
        col_nbrs[v].append(u)
    for j in range(2, g.n_v - 1):
        if len(col_nbrs[j]) != 1 or len(col_nbrs[j + 1]) != 1:
            continue
        u0 = col_nbrs[j][0]
        u1 = col_nbrs[j + 1][0]
        if u0 == u1:
            continue
        if (u0, j - 1) in eset and (u1, j + 2) in eset:
            yield _drop_columns(g, [j, j + 1]), (u0, u1, j)


_RULES = {
    "strip_appended_leaf": (_strip_appended_leaf, "bound + n"),
    "strip_isolated": (_strip_isolated, "bound + n"),
    "strip_inserted_leaf": (_strip_inserted_leaf, "2 * bound"),
    "split_shared_edge": (_split_shared_edge, "bound(low) + bound(high)"),
    "strip_guarded_leaf": (_strip_guarded_leaf, "bound * log n"),
    "strip_leaf_pair": (_strip_leaf_pair, "bound * log^2 n"),
}

_RULE_ORDER = ("strip_appended_leaf", "strip_isolated", "strip_inserted_leaf",
               "split_shared_edge", "strip_guarded_leaf", "strip_leaf_pair")

_RULE_CAVEATS = {
    # Stated for single-part hosts; applied to two-part patterns as well,
    # flagged so a reader can discount those steps.
    "strip_inserted_leaf": ("rule-proved-for-single-part-hosts",),
}


def _apply_terms(rule: str, child_terms: frozenset) -> frozenset:
    if rule in ("strip_appended_leaf", "strip_isolated"):
        return child_terms | {LINEAR}
    if rule == "strip_inserted_leaf":
        return child_terms
    if rule == "strip_guarded_leaf":
        return frozenset(BoundTerm(t.n_exp, t.log_exp + 1, t.subexp)
                         for t in child_terms)
    if rule == "strip_leaf_pair":
        return frozenset(BoundTerm(t.n_exp, t.log_exp + 2, t.subexp)
                         for t in child_terms)
    raise GraphValueError(f"unknown rule {rule}")


# ---------------------------------------------------------------------------
# Base cases
# ---------------------------------------------------------------------------

_MAX_COVER_ROWS = 7


@lru_cache(maxsize=4096)
def _matching_cover(g: PatternGraph):
    """Smallest generalized matching containing g, or None.

    Column degrees above one rule a cover out immediately.  Otherwise
    matchings on exactly the row count of g are generated for every
    block size up to the maximum row degree and every permutation, in
    ascending (block size, permutation) order, and tested by
    containment.
    """
    du, dv = g.degrees()
    if not g.edges or any(d > 1 for d in dv):
        return None
    k = g.n_u
    if k > _MAX_COVER_ROWS:
        return None
    if 0 in du:
        return None
    max_deg = max(du)
    for m in range(max(1, -(-g.n_v // k)), max_deg + 1):
        for pi in itertools.permutations(range(1, k + 1)):
            matching = generalized_matching(m, pi, BIPARTITE)
            if contains(matching, g) is not None:
                return m, pi, matching
    return None


@lru_cache(maxsize=1)
def _sailboat_canon() -> PatternGraph:
    return canonical_variant(sailboat())


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


def _best(a: _Candidate | None, b: _Candidate | None) -> _Candidate | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b, key=_Candidate.order_key)


def _search_upper(canon: PatternGraph, depth: int, memo: dict) -> _Candidate | None:
    key = (canon, depth)
    if key in memo:
        return memo[key]
    text = serialize_graph(canon)
    best = None
    if canon == _sailboat_canon():
        best = _Candidate(frozenset({BoundTerm(Fraction(1), 0, True)}),
                          (DerivationStep("sailboat_case", text, text,
                                          transform="n * subexponential factor"),),
                          "sailboat")
    for ops in VARIANT_SEQUENCES:
        variant = apply_variant(canon, ops)
        cover = _matching_cover(variant)
        if cover is not None:
            m, pi, matching = cover
            step = DerivationStep(
                "cover_by_matching", text, serialize_graph(matching),
                variant=ops, params=(m,) + tuple(pi),
                transform="linear base case")
            best = _best(best, _Candidate(frozenset({LINEAR}), (step,),
                                          "generalized-matching"))
    if depth <= 0:
        memo[key] = best
        return best
    for ops in VARIANT_SEQUENCES:
        variant = apply_variant(canon, ops)
        for rule in _RULE_ORDER:
            enumerate_rule, transform = _RULES[rule]
            for child, params in enumerate_rule(variant):
                if rule == "split_shared_edge":
                    low, high = child
                    sub_low = _search_upper(canonical_variant(low), depth - 1, memo)
                    if sub_low is None:
                        continue
                    sub_high = _search_upper(canonical_variant(high), depth - 1, memo)
                    if sub_high is None:
                        continue
                    steps = (
                        DerivationStep(rule, text,
                                       serialize_graph(canonical_variant(low)),
                                       variant=ops, params=params + ("low",),
                                       transform=transform),
                    ) + sub_low.steps + (
                        DerivationStep(rule, text,
                                       serialize_graph(canonical_variant(high)),
                                       variant=ops, params=params + ("high",),
                                       transform=transform),
                    ) + sub_high.steps
                    terms = frozenset(sub_low.terms | sub_high.terms)
                    terminal = _join_terminals(sub_low.terminal, sub_high.terminal)
                    best = _best(best, _Candidate(terms, steps, terminal))
                else:
                    child_canon = canonical_variant(child)
                    sub = _search_upper(child_canon, depth - 1, memo)
                    if sub is None:
                        continue
                    step = DerivationStep(rule, text, serialize_graph(child_canon),
                                          variant=ops, params=params,
                                          transform=transform,
                                          caveats=_RULE_CAVEATS.get(rule, ()))
                    best = _best(best, _Candidate(_apply_terms(rule, sub.terms),
                                                  (step,) + sub.steps,
                                                  sub.terminal))
    memo[key] = best
    return best


def _join_terminals(a: str, b: str) -> str:
    parts = []
    for t in a.split(";") + b.split(";"):
        if t not in parts:
            parts.append(t)
    return ";".join(parts)


def derive_upper_bound(pattern: PatternGraph, depth: int = 12) -> BoundResult:
    """Best upper bound found for the two-part extremal function of a
    bipartite pattern, with a replayable derivation.

    When no chain of rules reaches a base case within the depth cap, the
    result is the trivial quadratic bound with ``no_derivation`` set;
    that flag distinguishes an engine limit from a derived fact.  Depth
    0 tries the base cases only; a negative depth is refused.
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
    found = _search_upper(canon, depth, {})
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
    that each step's source was produced earlier, that re-applying the
    rule with the recorded parameters yields the recorded result, and
    that base-case steps really satisfy their predicate.
    """
    if not derivation.steps:
        return False
    produced = {serialize_graph(canonical_variant(pattern))}
    for step in derivation.steps:
        if step.source not in produced:
            return False
        if not _replay_step(step):
            return False
        produced.add(step.result)
    return True


def _replay_step(step: DerivationStep) -> bool:
    source = parse_graph(step.source)
    variant = apply_variant(source, tuple(step.variant))
    if step.rule == "sailboat_case":
        return canonical_variant(source) == _sailboat_canon()
    if step.rule == "cover_by_matching":
        m = step.params[0]
        pi = tuple(step.params[1:])
        matching = generalized_matching(m, pi, BIPARTITE)
        if serialize_graph(matching) != step.result:
            return False
        return contains(matching, variant) is not None
    if step.rule == "split_shared_edge":
        x, y, side = step.params
        for (low, high), params in _split_shared_edge(variant):
            if params == (x, y):
                child = low if side == "low" else high
                return serialize_graph(canonical_variant(child)) == step.result
        return False
    enumerate_rule, _ = _RULES[step.rule]
    for child, params in enumerate_rule(variant):
        if params == tuple(step.params):
            return serialize_graph(canonical_variant(child)) == step.result
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


_ORDERED_NONLINEAR_WITNESS = PatternGraph(ORDERED, 4, 0, ((1, 3), (1, 4), (2, 4)))


def derive_lower_bound(pattern: PatternGraph, h_cap: int = 2) -> BoundResult:
    """Best lower bound from the known sources, with its witness recorded.

    Sources: a cycle of length k in the underlying graph gives
    n^(1 + 1/(k-1)); containing a member of the non-linear bipartite
    family (or, for ordered patterns, the four-vertex pattern avoided by
    the doubling-distance host) gives n log n; otherwise the constant
    floor.
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
    if pattern.flavor == BIPARTITE:
        for j in range(1, h_cap + 1):
            family = keszegh_h(j)
            if family.n_edges > pattern.n_edges:
                break
            if contains(pattern, family) is not None:
                term = BoundTerm(Fraction(1), 1)
                step = DerivationStep("contains_nonlinear_family", text,
                                      serialize_graph(family), params=(j,),
                                      transform="tripling-distance host")
                candidates.append((term, Derivation((step,),
                                                    f"nonlinear-family:{j}")))
                break
    if pattern.flavor == ORDERED:
        if pattern.n_edges >= _ORDERED_NONLINEAR_WITNESS.n_edges and \
                contains(pattern, _ORDERED_NONLINEAR_WITNESS) is not None:
            term = BoundTerm(Fraction(1), 1)
            step = DerivationStep("contains_nonlinear_ordered", text,
                                  serialize_graph(_ORDERED_NONLINEAR_WITNESS),
                                  transform="doubling-distance host")
            candidates.append((term, Derivation((step,), "nonlinear-ordered")))
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
