"""Bounded trace semantics for SVA properties.

Encodes the satisfaction of a property over a finite trace of length ``K``
into AIG literals.  The encoding follows the finite-trace (neutral)
semantics of IEEE 1800-2017 Annex F.3.4:

* a **sequence** is characterized by its set of *match end times* within the
  trace plus a *beyond* literal -- "some match of this sequence extends past
  the end of the trace" (i.e., the K-prefix is not a bad prefix);
* a **weak** sequence/property holds iff it matches within the trace *or*
  could still match beyond it (``OR(ends) | beyond``);
* a **strong** sequence (``strong(...)``, ``s_eventually``, ``s_until``)
  demands a completed witness within the trace (``OR(ends)``).

With signals left free (every signal/cycle a fresh SAT variable), comparing
two properties under this encoding at a horizon past both properties'
constant-delay depth reproduces JasperGold's infinite-trace equivalence
verdicts for the benchmark's property class: notably, weak unbounded
eventualities (``a |-> ##[1:$] b``) are correctly trivially-true, which is
exactly why the reference solutions use ``strong(##[0:$] ...)`` -- see the
paper's Figure 7 discussion.
"""

from __future__ import annotations

from ..sva.ast_nodes import (
    AlwaysProp,
    Assertion,
    Delay,
    FirstMatch,
    IfElseProp,
    Implication,
    Nexttime,
    PropBinary,
    PropNode,
    PropNot,
    PropSeq,
    Repetition,
    SeqBinary,
    SeqExpr,
    SeqNode,
    SEventually,
    StrongWeak,
    Until,
)
from .aig import AIG, FALSE, TRUE, neg
from .bitvec import AigBackend, EvalError, ExprEvaluator, SignalSource


class EncodingError(ValueError):
    """Raised for property constructs outside the supported bounded subset."""


def horizon_of(node, base: int = 0) -> int:
    """Upper bound on the number of cycles the property can look ahead,
    counting constant delays, repetitions and nexttime offsets.  Unbounded
    tails contribute 0 (their window is the full horizon anyway)."""
    h = 0
    if isinstance(node, Assertion):
        return horizon_of(node.prop)
    if isinstance(node, Delay):
        span = node.hi if node.hi is not None else node.lo
        h = span + horizon_of(node.rhs)
        if node.lhs is not None:
            h += horizon_of(node.lhs)
        return h
    if isinstance(node, Repetition):
        span = node.hi if node.hi is not None else max(node.lo, 1)
        return span * max(1, horizon_of(node.seq) + 1)
    if isinstance(node, Implication):
        return (horizon_of(node.antecedent) + (0 if node.overlapping else 1)
                + horizon_of(node.consequent))
    if isinstance(node, Nexttime):
        return node.offset + horizon_of(node.operand)
    if isinstance(node, (SEventually, AlwaysProp)):
        return 1 + horizon_of(node.operand)
    if isinstance(node, Until):
        return 1 + max(horizon_of(node.left), horizon_of(node.right))
    children = node.children() if hasattr(node, "children") else ()
    for child in children:
        h = max(h, horizon_of(child))
    return h


def reads_to_end(prop: PropNode) -> bool:
    """True if *prop*'s encoding ranges to the horizon ``K`` (the
    ``self.K`` sites below); otherwise it is the same at every horizon
    past :func:`horizon_of`."""
    return any(isinstance(n, (SEventually, AlwaysProp, Until))
               or isinstance(n, Delay) and n.hi is None
               or isinstance(n, Repetition) and (n.hi is None or n.kind != "*")
               or isinstance(n, SeqBinary) and n.op == "throughout"
               for n in prop.walk())


class PropertyEncoder:
    """Encodes property satisfaction at each start cycle into AIG literals."""

    def __init__(self, aig: AIG, source: SignalSource, horizon: int,
                 params: dict[str, int] | None = None):
        self.aig = aig
        self.K = horizon
        self.evaluator = ExprEvaluator(AigBackend(aig), source, params)
        self._bool_cache: dict[tuple[int, int], tuple] = {}
        #: id(disable expr) -> (expr, suffix chain): ``chain[i]`` is
        #: "the condition holds somewhere in cycles K-1-i .. K-1"
        self._abort_chains: dict[int, tuple] = {}

    def forget(self) -> None:
        """Drop the identity-keyed memos (sampled expressions, abort
        chains).  A memo hit reads no signal, so a caller that records
        which signals an encoding touches starts each one cold."""
        self._bool_cache.clear()
        self._abort_chains.clear()

    # -- expression sampling ---------------------------------------------------

    def expr_bool(self, expr, t: int) -> int:
        key = (id(expr), t)
        hit = self._bool_cache.get(key)
        if hit is not None:
            return hit[0]
        try:
            lit = self.evaluator.eval_bool(expr, t)
        except EvalError as exc:
            raise EncodingError(str(exc)) from exc
        # pin the expr object in the value: encoders now outlive the
        # assertions they encode (shared proof sessions), and an id()-keyed
        # cache is only sound while the keyed object cannot be recycled
        self._bool_cache[key] = (lit, expr)
        return lit

    # -- assertion entry ---------------------------------------------------------

    def encode_assertion(self, assertion: Assertion, t: int = 0) -> int:
        """Literal: the assertion attempt starting at cycle *t* holds.

        ``disable iff`` aborts (satisfies) the attempt if the condition holds
        at any cycle of the evaluation window, per the LRM's asynchronous
        abort semantics over the bounded window.
        """
        value = self.sat(assertion.prop, t)
        if assertion.disable is not None:
            value = self.aig.or_(self._aborted(assertion.disable, t), value)
        return value

    def _aborted(self, disable, t: int) -> int:
        """Literal: *disable* holds at some cycle of ``t .. K-1``.

        One suffix chain per disable expression, ``abort[t] =
        or_(disable@t, abort[t+1])``, shared by every attempt: O(K)
        gates and look-ups for K attempts, where a left-folded OR per
        attempt is O(K^2) and shares nothing between attempts.  It
        grows downward from K-1 only as far as the lowest attempt asked
        for, so no cycle before the first attempt is ever sampled.
        Keyed by node identity like ``_bool_cache``, and pinning the
        node for the same reason.
        """
        if t >= self.K:
            return FALSE
        entry = self._abort_chains.get(id(disable))
        if entry is None:
            entry = self._abort_chains[id(disable)] = (disable, [])
        chain = entry[1]
        or_ = self.aig.or_
        while len(chain) < self.K - t:
            cycle = self.K - 1 - len(chain)
            chain.append(or_(self.expr_bool(disable, cycle),
                             chain[-1] if chain else FALSE))
        return chain[self.K - 1 - t]

    # -- property satisfaction ---------------------------------------------------

    def sat(self, prop: PropNode, t: int) -> int:
        if t >= self.K:
            return self._off_end(prop)
        if isinstance(prop, PropSeq):
            ends, beyond = self.seq(prop.seq, t)
            return self.aig.or_(self.aig.or_many(ends.values()), beyond)
        if isinstance(prop, StrongWeak):
            ends, beyond = self.seq(prop.seq, t)
            matched = self.aig.or_many(ends.values())
            if prop.strong:
                return matched
            return self.aig.or_(matched, beyond)
        if isinstance(prop, Implication):
            ends, _beyond = self.seq(prop.antecedent, t)
            offset = 0 if prop.overlapping else 1
            obligations = [
                self.aig.implies_(m, self.sat(prop.consequent, e + offset))
                for e, m in ends.items()]
            return self.aig.and_many(obligations)
        if isinstance(prop, PropNot):
            return neg(self.sat(prop.operand, t))
        if isinstance(prop, PropBinary):
            a = self.sat(prop.left, t)
            b = self.sat(prop.right, t)
            if prop.op == "and":
                return self.aig.and_(a, b)
            if prop.op == "or":
                return self.aig.or_(a, b)
            if prop.op == "iff":
                return self.aig.xnor_(a, b)
            if prop.op == "implies":
                return self.aig.implies_(a, b)
            raise EncodingError(f"unknown property op {prop.op}")
        if isinstance(prop, SEventually):
            return self.aig.or_many(
                self.sat(prop.operand, j) for j in range(t, self.K))
        if isinstance(prop, AlwaysProp):
            return self.aig.and_many(
                self.sat(prop.operand, j) for j in range(t, self.K))
        if isinstance(prop, Until):
            return self._sat_until(prop, t)
        if isinstance(prop, Nexttime):
            return self.sat(prop.operand, t + prop.offset) \
                if t + prop.offset < self.K else \
                (FALSE if prop.strong else TRUE)
        if isinstance(prop, IfElseProp):
            c = self.expr_bool(prop.cond, t)
            then_v = self.sat(prop.if_true, t)
            else_v = self.sat(prop.if_false, t) if prop.if_false is not None \
                else TRUE
            return self.aig.mux_(c, then_v, else_v)
        raise EncodingError(f"unsupported property node {type(prop).__name__}")

    def _sat_until(self, prop: Until, t: int) -> int:
        g = self.aig
        terms = []
        left_prefix = TRUE
        for j in range(t, self.K):
            q = self.sat(prop.right, j)
            if prop.with_overlap:
                q = g.and_(q, self.sat(prop.left, j))
            terms.append(g.and_(left_prefix, q))
            left_prefix = g.and_(left_prefix, self.sat(prop.left, j))
        released = g.or_many(terms)
        if prop.strong:
            return released
        # weak: left may simply hold to the end of the trace
        return g.or_(released, left_prefix)

    def _off_end(self, prop: PropNode) -> int:
        """Value of a property evaluated entirely beyond the trace end:
        weak operators default true, strong ones false."""
        if isinstance(prop, (PropSeq, AlwaysProp, IfElseProp, Implication)):
            return TRUE
        if isinstance(prop, StrongWeak):
            return FALSE if prop.strong else TRUE
        if isinstance(prop, SEventually):
            return FALSE
        if isinstance(prop, Until):
            return FALSE if prop.strong else TRUE
        if isinstance(prop, Nexttime):
            return FALSE if prop.strong else TRUE
        if isinstance(prop, PropNot):
            return neg(self._off_end(prop.operand))
        if isinstance(prop, PropBinary):
            a = self._off_end(prop.left)
            b = self._off_end(prop.right)
            return {"and": self.aig.and_, "or": self.aig.or_,
                    "iff": self.aig.xnor_,
                    "implies": self.aig.implies_}[prop.op](a, b)
        return TRUE

    # -- sequence matching ---------------------------------------------------------

    def seq(self, s: SeqNode, t: int) -> tuple[dict[int, int], int]:
        """Returns ``(ends, beyond)`` for sequence *s* started at cycle *t*.

        ``ends`` maps end cycle -> AIG literal ("a match of s over [t, e]");
        ``beyond`` is the literal "a match could complete past the trace end".
        """
        if t >= self.K:
            return {}, TRUE
        if isinstance(s, SeqExpr):
            return {t: self.expr_bool(s.expr, t)}, FALSE
        if isinstance(s, Delay):
            return self._seq_delay(s, t)
        if isinstance(s, Repetition):
            return self._seq_repetition(s, t)
        if isinstance(s, SeqBinary):
            return self._seq_binary(s, t)
        if isinstance(s, FirstMatch):
            return self._seq_first_match(s, t)
        raise EncodingError(f"unsupported sequence node {type(s).__name__}")

    def _seq_delay(self, s: Delay, t: int) -> tuple[dict[int, int], int]:
        g = self.aig
        if s.lhs is None:
            # leading delay: ##d seq starts the sequence at t + d, which is
            # the same combination rule as a (virtual) lhs match ending at t
            lhs_ends: dict[int, int] = {t: TRUE}
            lhs_beyond = FALSE
        else:
            lhs_ends, lhs_beyond = self.seq(s.lhs, t)
        ends: dict[int, int] = {}
        beyond = lhs_beyond
        for e1, m1 in lhs_ends.items():
            hi = s.hi if s.hi is not None else self.K - e1  # cap at horizon
            for d in range(s.lo, hi + 1):
                start2 = e1 + d  # ##0 fuses on the end cycle per LRM 16.9.2
                if start2 >= self.K:
                    beyond = g.or_(beyond, m1)
                    break
                r_ends, r_beyond = self.seq(s.rhs, start2)
                for e2, m2 in r_ends.items():
                    lit = g.and_(m1, m2)
                    ends[e2] = g.or_(ends.get(e2, FALSE), lit)
                beyond = g.or_(beyond, g.and_(m1, r_beyond))
            if s.hi is None:
                # unbounded tail: rhs may always start beyond the trace
                beyond = g.or_(beyond, m1)
        return ends, beyond

    def _seq_repetition(self, s: Repetition, t: int) -> tuple[dict[int, int], int]:
        if s.kind == "*":
            return self._rep_consecutive(s, t)
        # [->n] goto and [=n] non-consecutive require a boolean operand
        if not isinstance(s.seq, SeqExpr):
            raise EncodingError(f"[{s.kind}] repetition needs a boolean operand")
        g = self.aig
        expr = s.seq.expr
        lits = [self.expr_bool(expr, j) for j in range(t, self.K)]
        max_count = min(s.hi if s.hi is not None else len(lits), len(lits))
        hi = s.hi if s.hi is not None else max_count
        ends: dict[int, int] = {}
        # dp[c] after step j = "exactly c occurrences of expr in [t..t+j]"
        dp = [TRUE] + [FALSE] * max_count
        for j, bit in enumerate(lits):
            new_dp = [FALSE] * (max_count + 1)
            for c in range(max_count + 1):
                stay = g.and_(dp[c], neg(bit))
                inc = g.and_(dp[c - 1], bit) if c >= 1 else FALSE
                new_dp[c] = g.or_(stay, inc)
            dp = new_dp
            end_t = t + j
            for n in range(max(s.lo, 1), min(hi, max_count) + 1):
                if s.kind == "->":
                    # goto: the match ends exactly at the n-th occurrence
                    hit = g.and_(bit, dp[n])
                else:
                    # [=n]: count is n at this cycle (padding included)
                    hit = dp[n]
                ends[end_t] = g.or_(ends.get(end_t, FALSE), hit)
        # beyond: the match could still complete past the trace end if the
        # occurrence count within the trace has not yet exceeded the budget
        if s.hi is None:
            beyond = TRUE
        elif s.kind == "->":
            beyond = g.or_many(dp[c] for c in range(0, min(s.hi, max_count)))
        else:
            beyond = g.or_many(dp[c] for c in range(0, min(s.hi, max_count) + 1))
        return ends, beyond

    def _rep_consecutive(self, s: Repetition, t: int) -> tuple[dict[int, int], int]:
        """``seq[*lo:hi]`` -- lo..hi back-to-back matches (##1 concatenation)."""
        g = self.aig
        ends: dict[int, int] = {}
        beyond = FALSE
        hi = s.hi if s.hi is not None else self.K - t + 1
        # frontier: end -> literal of a chain of exactly c matches
        if s.lo == 0:
            # empty match: ends "at t-1" (zero length).  Zero-repetition only
            # composes with delay; approximate by an end at t-1 which the
            # delay combinator reads as a fused start at t.
            ends[t - 1] = TRUE
        frontier = {t - 1: TRUE}
        for count in range(1, hi + 1):
            new_frontier: dict[int, int] = {}
            for e_prev, m_prev in frontier.items():
                start = e_prev + 1
                if start >= self.K:
                    beyond = g.or_(beyond, m_prev)
                    continue
                s_ends, s_beyond = self.seq(s.seq, start)
                beyond = g.or_(beyond, g.and_(m_prev, s_beyond))
                for e, m in s_ends.items():
                    lit = g.and_(m_prev, m)
                    new_frontier[e] = g.or_(new_frontier.get(e, FALSE), lit)
            frontier = new_frontier
            if not frontier:
                break
            if count >= s.lo:
                for e, m in frontier.items():
                    ends[e] = g.or_(ends.get(e, FALSE), m)
        if s.hi is None and frontier:
            beyond = g.or_(beyond, g.or_many(frontier.values()))
        return ends, beyond

    def _seq_binary(self, s: SeqBinary, t: int) -> tuple[dict[int, int], int]:
        g = self.aig
        if s.op == "throughout":
            assert isinstance(s.left, SeqExpr)
            r_ends, r_beyond = self.seq(s.right, t)
            ends = {}
            for e, m in r_ends.items():
                guard = g.and_many(
                    self.expr_bool(s.left.expr, i) for i in range(t, e + 1))
                ends[e] = g.and_(m, guard)
            guard_full = g.and_many(
                self.expr_bool(s.left.expr, i) for i in range(t, self.K))
            return ends, g.and_(r_beyond, guard_full)
        l_ends, l_beyond = self.seq(s.left, t)
        r_ends, r_beyond = self.seq(s.right, t)
        ends: dict[int, int] = {}
        if s.op == "or":
            for e, m in l_ends.items():
                ends[e] = g.or_(ends.get(e, FALSE), m)
            for e, m in r_ends.items():
                ends[e] = g.or_(ends.get(e, FALSE), m)
            return ends, g.or_(l_beyond, r_beyond)
        if s.op == "intersect":
            for e, m in l_ends.items():
                if e in r_ends:
                    ends[e] = g.or_(ends.get(e, FALSE), g.and_(m, r_ends[e]))
            return ends, g.and_(l_beyond, r_beyond)
        if s.op == "and":
            for e1, m1 in l_ends.items():
                for e2, m2 in r_ends.items():
                    e = max(e1, e2)
                    ends[e] = g.or_(ends.get(e, FALSE), g.and_(m1, m2))
            both_beyond = g.and_(l_beyond, r_beyond)
            l_match_r_beyond = g.and_(g.or_many(l_ends.values()), r_beyond)
            r_match_l_beyond = g.and_(g.or_many(r_ends.values()), l_beyond)
            return ends, g.or_many(
                [both_beyond, l_match_r_beyond, r_match_l_beyond])
        if s.op == "within":
            # left match fully inside a right match
            out: dict[int, int] = {}
            for e2, m2 in r_ends.items():
                inner = FALSE
                for t1 in range(t, e2 + 1):
                    inner_ends, _ = self.seq(s.left, t1)
                    for e1, m1 in inner_ends.items():
                        if e1 <= e2:
                            inner = g.or_(inner, m1)
                out[e2] = g.or_(out.get(e2, FALSE), g.and_(m2, inner))
            return out, r_beyond
        raise EncodingError(f"unsupported sequence op {s.op}")

    def _seq_first_match(self, s: FirstMatch, t: int) -> tuple[dict[int, int], int]:
        g = self.aig
        ends, beyond = self.seq(s.seq, t)
        out: dict[int, int] = {}
        no_earlier = TRUE
        for e in sorted(ends):
            out[e] = g.and_(ends[e], no_earlier)
            no_earlier = g.and_(no_earlier, neg(ends[e]))
        return out, g.and_(beyond, no_earlier)
