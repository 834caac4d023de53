"""The policy decision-tree DSL and its load-time compiler.

A policy *document* is plain JSON: a name, a decision domain, and a
decision ``tree`` of typed conditions over the domain's declared
:class:`~repro.policy.signals.SignalSet`.  :func:`compile_policy` turns a
document into a :class:`CompiledPolicy` — and does **all** validation up
front: unknown keys, unknown/out-of-scope signals, malformed operators,
empty score lists, over-deep (or self-referential) trees every produce a
:class:`~repro.errors.ValidationError` carrying a JSON-path into the
document (``$.tree.then.score[1]: unknown signal 'foo' ...``), never a
deep stack trace at decision time.

Grammar (all of it)::

    document  := {"name": str, "domain": "placement"|"keepalive"|"autoscale",
                  "description"?: str,
                  "candidates"?: "queue-state"|"home-hosts",   # autoscale only
                  "tree": node}
    node      := {"if": cond, "then": node, "else": node}      # condition
               | {"value": expr}                               # scalar leaf
               | {"choose": "argmin"|"argmax",                 # choose leaf
                  "score": [term, ...], "where"?: [cond, ...]}
    cond      := {"signal": ref, "op": "<"|"<="|">"|">="|"=="|"!=",
                  "value": number | {"signal": ref}}
    ref       := str | {"name": str, <arg>: number, ...}
    expr      := number | {"signal": ref}
               | {"sum": [term, ...], "clamp"?: [lo, hi]}
    term      := number | {"signal": ref, "weight"?: number}
               | {"const": number, "weight"?: number}

Placement trees must end in ``choose`` leaves (they pick a host) and may
read node-scoped signals only inside a leaf's ``score``/``where``;
keep-alive and autoscale trees must end in ``value`` leaves (they yield a
number).  Which signal names exist — and, for autoscale, which candidate
enumeration supplies them — comes from :mod:`repro.policy.signals`.

The compiled tree is the validated, inspectable form; nothing walks it
at decision time.  Each domain adapter calls :func:`bind_policy` once,
when its policy object is built, with the domain's accessor table (signal
name → reader), and a decision then runs the bound closures.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (Callable, FrozenSet, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.errors import ValidationError
from repro.policy.signals import (
    CANDIDATE_MODES,
    DOMAINS,
    SCOPE_AGGREGATE,
    SCOPE_NODE,
    SIGNAL_SETS,
    SignalSet,
)

#: Hard ceiling on tree nesting; also terminates self-referential documents.
MAX_DEPTH = 32

#: Comparison operators a condition may use.
OPERATORS: Mapping[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

CHOOSE_ARGMIN = "argmin"
CHOOSE_ARGMAX = "argmax"

#: Where a policy's decision logic comes from: a Python class or a
#: compiled document.
SOURCE_BUILTIN = "builtin"
SOURCE_DSL = "dsl"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


@dataclass(frozen=True)
class SignalRef:
    """A compiled reference to one declared signal (plus fixed args)."""

    name: str
    args: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Term:
    """One weighted addend of a score or sum expression."""

    weight: float
    ref: Optional[SignalRef] = None
    const: float = 0.0


@dataclass(frozen=True)
class SumExpr:
    """A weighted sum of terms, optionally clamped to ``[lo, hi]``."""

    terms: Tuple[Term, ...]
    clamp: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class Condition:
    """A typed comparison ``signal <op> (number | signal)``."""

    lhs: SignalRef
    op: str
    rhs_const: Optional[float] = None
    rhs_ref: Optional[SignalRef] = None


@dataclass(frozen=True)
class ConditionNode:
    """An interior ``if``/``then``/``else`` node."""

    condition: Condition
    then: "Node"
    otherwise: "Node"


@dataclass(frozen=True)
class ValueLeaf:
    """A scalar leaf (keep-alive / autoscale trees)."""

    expr: SumExpr


@dataclass(frozen=True)
class ChooseLeaf:
    """An argmin/argmax-over-candidates leaf (placement trees)."""

    mode: str
    score: Tuple[Term, ...]
    where: Tuple[Condition, ...] = ()


Node = Union[ConditionNode, ValueLeaf, ChooseLeaf]


@dataclass(frozen=True)
class CompiledPolicy:
    """A validated policy document, ready for a domain adapter to run."""

    name: str
    domain: str
    tree: Node
    description: str = ""
    #: Autoscale only: the candidate enumeration mode.
    candidates: Optional[str] = None
    #: The source document, kept verbatim for artifacts and hashing.
    document: Mapping[str, object] = field(default_factory=dict)


class _Compiler:
    """Single-document compile pass carrying the domain's signal rules."""

    def __init__(self, domain: str, signals: SignalSet,
                 candidates: Optional[str]) -> None:
        self.domain = domain
        self.signals = signals
        self.candidates = candidates

    # -- signal references -------------------------------------------------

    def ref(self, raw: object, path: str, *, node_scope: bool) -> SignalRef:
        """Compile a signal reference, enforcing scope and arguments."""
        if isinstance(raw, str):
            name, extra = raw, {}
        elif isinstance(raw, Mapping):
            if "name" not in raw:
                _fail(path, "signal reference object needs a 'name' key")
            name = raw["name"]
            extra = {k: v for k, v in raw.items() if k != "name"}
        else:
            _fail(path, "signal reference must be a string or an object "
                        "with a 'name'")
        if not isinstance(name, str):
            _fail(path, "signal name must be a string")
        if name not in self.signals:
            _fail(path, f"unknown signal {name!r} for domain "
                        f"{self.domain!r} (available: "
                        f"{', '.join(self.signals.names())})")
        spec = self.signals.get(name)
        if spec.scope == SCOPE_NODE and not node_scope:
            _fail(path, f"signal {name!r} is node-scoped and may only be "
                        "read inside a 'choose' leaf's score/where")
        if spec.modes and self.candidates not in spec.modes:
            _fail(path, f"signal {name!r} needs candidates mode "
                        f"{' or '.join(repr(m) for m in spec.modes)}, "
                        f"document declares {self.candidates!r}")
        for key in extra:
            if key not in spec.args:
                _fail(path, f"signal {name!r} takes no argument {key!r}")
        for key in spec.required_args:
            if key not in extra:
                _fail(path, f"signal {name!r} requires argument {key!r}")
        args = []
        for key in sorted(extra):
            value = extra[key]
            if not _is_number(value):
                _fail(path, f"argument {key!r} of signal {name!r} must be "
                            "a number")
            if key == "q" and not 0.0 < float(value) <= 1.0:
                _fail(path, f"argument 'q' of signal {name!r} must be in "
                            "(0, 1]")
            args.append((key, float(value)))
        return SignalRef(name=name, args=tuple(args))

    # -- scalar expressions ------------------------------------------------

    def term(self, raw: object, path: str, *, node_scope: bool) -> Term:
        """Compile one score/sum term."""
        if _is_number(raw):
            return Term(weight=1.0, const=float(raw))
        if not isinstance(raw, Mapping):
            _fail(path, "term must be a number, a {'signal': ...} object, "
                        "or a {'const': ...} object")
        weight = raw.get("weight", 1.0)
        if not _is_number(weight):
            _fail(path, "'weight' must be a number")
        has_signal = "signal" in raw
        has_const = "const" in raw
        if has_signal == has_const:
            _fail(path, "term needs exactly one of 'signal' or 'const'")
        allowed = {"weight", "signal"} if has_signal else {"weight", "const"}
        for key in raw:
            if key not in allowed:
                _fail(path, f"unknown term key {key!r}")
        if has_signal:
            ref = self.ref(raw["signal"], f"{path}.signal",
                           node_scope=node_scope)
            return Term(weight=float(weight), ref=ref)
        if not _is_number(raw["const"]):
            _fail(path, "'const' must be a number")
        return Term(weight=float(weight), const=float(raw["const"]))

    def expr(self, raw: object, path: str) -> SumExpr:
        """Compile a scalar expression (number, signal, or clamped sum)."""
        if _is_number(raw):
            return SumExpr(terms=(Term(weight=1.0, const=float(raw)),))
        if not isinstance(raw, Mapping):
            _fail(path, "expression must be a number, a {'signal': ...} "
                        "object, or a {'sum': [...]} object")
        if "signal" in raw:
            for key in raw:
                if key != "signal":
                    _fail(path, f"unknown expression key {key!r}")
            ref = self.ref(raw["signal"], f"{path}.signal", node_scope=False)
            return SumExpr(terms=(Term(weight=1.0, ref=ref),))
        if "sum" not in raw:
            _fail(path, "expression object needs a 'signal' or 'sum' key")
        for key in raw:
            if key not in ("sum", "clamp"):
                _fail(path, f"unknown expression key {key!r}")
        raw_terms = raw["sum"]
        if not isinstance(raw_terms, Sequence) or isinstance(raw_terms, str):
            _fail(path, "'sum' must be a list of terms")
        if not raw_terms:
            _fail(path, "'sum' must not be empty")
        terms = tuple(self.term(item, f"{path}.sum[{i}]", node_scope=False)
                      for i, item in enumerate(raw_terms))
        clamp: Optional[Tuple[float, float]] = None
        if "clamp" in raw:
            raw_clamp = raw["clamp"]
            if (not isinstance(raw_clamp, Sequence)
                    or isinstance(raw_clamp, str) or len(raw_clamp) != 2
                    or not all(_is_number(v) for v in raw_clamp)):
                _fail(f"{path}.clamp", "'clamp' must be [lo, hi] numbers")
            lo, hi = float(raw_clamp[0]), float(raw_clamp[1])
            if lo > hi:
                _fail(f"{path}.clamp", f"clamp lo {lo} exceeds hi {hi}")
            clamp = (lo, hi)
        return SumExpr(terms=terms, clamp=clamp)

    # -- conditions --------------------------------------------------------

    def condition(self, raw: object, path: str, *,
                  node_scope: bool) -> Condition:
        """Compile a typed comparison."""
        if not isinstance(raw, Mapping):
            _fail(path, "condition must be an object with 'signal', 'op', "
                        "and 'value' keys")
        for key in ("signal", "op", "value"):
            if key not in raw:
                _fail(path, f"condition is missing the {key!r} key")
        for key in raw:
            if key not in ("signal", "op", "value"):
                _fail(path, f"unknown condition key {key!r}")
        lhs = self.ref(raw["signal"], f"{path}.signal", node_scope=node_scope)
        op = raw["op"]
        if op not in OPERATORS:
            _fail(f"{path}.op", f"unknown operator {op!r} (expected one "
                                f"of {', '.join(OPERATORS)})")
        value = raw["value"]
        if _is_number(value):
            return Condition(lhs=lhs, op=op, rhs_const=float(value))
        if isinstance(value, Mapping) and set(value) == {"signal"}:
            rhs = self.ref(value["signal"], f"{path}.value.signal",
                           node_scope=node_scope)
            return Condition(lhs=lhs, op=op, rhs_ref=rhs)
        _fail(f"{path}.value", "comparison value must be a number or a "
                               "{'signal': ...} object")

    # -- nodes -------------------------------------------------------------

    def node(self, raw: object, path: str, depth: int) -> Node:
        """Compile one tree node (dispatching on its single shape key)."""
        if depth > MAX_DEPTH:
            _fail(path, f"tree deeper than {MAX_DEPTH} levels (is the "
                        "document self-referential?)")
        if not isinstance(raw, Mapping):
            _fail(path, "node must be an object ('if'/'value'/'choose')")
        shapes = [key for key in ("if", "value", "choose") if key in raw]
        if len(shapes) != 1:
            _fail(path, "node must have exactly one of 'if', 'value', or "
                        "'choose'")
        shape = shapes[0]
        if shape == "if":
            for key in raw:
                if key not in ("if", "then", "else"):
                    _fail(path, f"unknown node key {key!r}")
            for key in ("then", "else"):
                if key not in raw:
                    _fail(path, f"'if' node is missing its {key!r} branch")
            condition = self.condition(raw["if"], f"{path}.if",
                                       node_scope=False)
            then = self.node(raw["then"], f"{path}.then", depth + 1)
            otherwise = self.node(raw["else"], f"{path}.else", depth + 1)
            return ConditionNode(condition=condition, then=then,
                                 otherwise=otherwise)
        if shape == "value":
            if self.domain == "placement":
                _fail(path, "placement trees choose among hosts; scalar "
                            "'value' leaves are not allowed")
            for key in raw:
                if key != "value":
                    _fail(path, f"unknown node key {key!r}")
            return ValueLeaf(expr=self.expr(raw["value"], f"{path}.value"))
        # shape == "choose"
        if self.domain != "placement":
            _fail(path, f"{self.domain} trees yield a number; 'choose' "
                        "leaves are placement-only")
        for key in raw:
            if key not in ("choose", "score", "where"):
                _fail(path, f"unknown node key {key!r}")
        mode = raw["choose"]
        if mode not in (CHOOSE_ARGMIN, CHOOSE_ARGMAX):
            _fail(f"{path}.choose", f"'choose' must be '{CHOOSE_ARGMIN}' "
                                    f"or '{CHOOSE_ARGMAX}', got {mode!r}")
        raw_score = raw.get("score")
        if (not isinstance(raw_score, Sequence) or isinstance(raw_score, str)
                or not raw_score):
            _fail(f"{path}.score", "'choose' needs a non-empty 'score' "
                                   "list of terms")
        score = tuple(self.term(item, f"{path}.score[{i}]", node_scope=True)
                      for i, item in enumerate(raw_score))
        where: Tuple[Condition, ...] = ()
        if "where" in raw:
            raw_where = raw["where"]
            if (not isinstance(raw_where, Sequence)
                    or isinstance(raw_where, str)):
                _fail(f"{path}.where", "'where' must be a list of "
                                       "conditions")
            where = tuple(
                self.condition(item, f"{path}.where[{i}]", node_scope=True)
                for i, item in enumerate(raw_where))
        return ChooseLeaf(mode=mode, score=score, where=where)


def compile_policy(document: object, path: str = "$") -> CompiledPolicy:
    """Validate *document* and compile it into a :class:`CompiledPolicy`.

    Raises :class:`~repro.errors.ValidationError` with a JSON-path into the
    document on the first problem found.
    """
    if not isinstance(document, Mapping):
        _fail(path, "policy document must be a JSON object")
    for key in document:
        if key not in ("name", "domain", "description", "candidates",
                       "tree"):
            _fail(path, f"unknown document key {key!r}")
    name = document.get("name")
    if not isinstance(name, str) or not name.strip():
        _fail(f"{path}.name", "document needs a non-empty string 'name'")
    domain = document.get("domain")
    if domain not in DOMAINS:
        _fail(f"{path}.domain", f"unknown domain {domain!r} (expected one "
                                f"of {', '.join(DOMAINS)})")
    description = document.get("description", "")
    if not isinstance(description, str):
        _fail(f"{path}.description", "'description' must be a string")
    candidates = document.get("candidates")
    if domain == "autoscale":
        if candidates not in CANDIDATE_MODES:
            _fail(f"{path}.candidates",
                  "autoscale documents must declare 'candidates' as "
                  f"{' or '.join(repr(m) for m in CANDIDATE_MODES)}, "
                  f"got {candidates!r}")
    elif candidates is not None:
        _fail(f"{path}.candidates",
              f"'candidates' only applies to autoscale documents, not "
              f"{domain!r}")
    if "tree" not in document:
        _fail(path, "document is missing its 'tree'")
    compiler = _Compiler(domain=domain, signals=SIGNAL_SETS[domain],
                         candidates=candidates)
    tree = compiler.node(document["tree"], f"{path}.tree", depth=1)
    return CompiledPolicy(name=name, domain=domain, tree=tree,
                          description=description, candidates=candidates,
                          document=document)


# ---------------------------------------------------------------------------
# Binding: a compiled tree against one domain's accessor table
# ---------------------------------------------------------------------------
#: ``read(context, subject) -> float``: one signal's value in one decision.
#: The domain adapter chooses both arguments (placement: the decision and
#: the candidate host, ``None`` above a ``choose`` leaf; keep-alive: the
#: arrival history and the function; autoscale: the tick's view and one
#: candidate's values).  A reference's arguments arrive as keywords.
Reader = Callable[..., float]

#: ``(context, subject) -> value``: a bound expression, condition or tree.
Bound = Callable[[object, object], object]


@dataclass(frozen=True)
class BoundChoice:
    """A ``choose`` leaf bound to its domain's accessors."""

    mode: str
    #: ``(context, candidate) -> bool``: the ``where`` conditions in
    #: document order, stopping at the first that fails.
    admits: Bound
    #: ``(context, candidate) -> float``: ``0.0`` plus each term's
    #: ``weight * value``, in document order.
    score: Bound
    #: Every signal name the leaf's ``where`` and ``score`` read.
    reads: FrozenSet[str]


def _always(context: object, subject: object) -> bool:
    del context, subject
    return True


class _Binder:
    """Binds one compiled policy's nodes to closures over *accessors*."""

    def __init__(self, policy: CompiledPolicy,
                 accessors: Mapping[str, Reader]) -> None:
        self.policy = policy
        self.accessors = accessors

    def ref(self, ref: SignalRef) -> Bound:
        read = self.accessors.get(ref.name)
        if read is None:
            raise ValidationError(
                f"policy {self.policy.name!r}: the {self.policy.domain} "
                f"domain has no accessor for signal {ref.name!r}")
        if not ref.args:
            return read
        kwargs = dict(ref.args)
        return lambda context, subject: read(context, subject, **kwargs)

    def term(self, term: Term) -> Tuple[float, Bound]:
        if term.ref is not None:
            return term.weight, self.ref(term.ref)
        const = term.const
        return term.weight, lambda context, subject: const

    def terms(self, terms: Sequence[Term]) -> Bound:
        bound = tuple(self.term(term) for term in terms)

        def total(context: object, subject: object) -> float:
            value = 0.0
            for weight, read in bound:
                value += weight * read(context, subject)
            return value

        return total

    def expr(self, expr: SumExpr) -> Bound:
        total = self.terms(expr.terms)
        if expr.clamp is None:
            return total
        lo, hi = expr.clamp
        return lambda context, subject: min(hi, max(lo,
                                                    total(context, subject)))

    def condition(self, condition: Condition) -> Bound:
        compare = OPERATORS[condition.op]
        left = self.ref(condition.lhs)
        if condition.rhs_ref is not None:
            right = self.ref(condition.rhs_ref)
            return lambda context, subject: compare(left(context, subject),
                                                    right(context, subject))
        value = condition.rhs_const
        return lambda context, subject: compare(left(context, subject),
                                                value)

    def conjunction(self, conditions: Sequence[Condition]) -> Bound:
        if not conditions:
            return _always
        bound = tuple(self.condition(condition) for condition in conditions)

        def admits(context: object, subject: object) -> bool:
            for holds in bound:
                if not holds(context, subject):
                    return False
            return True

        return admits

    def choice(self, leaf: ChooseLeaf) -> Bound:
        refs = [term.ref for term in leaf.score if term.ref is not None]
        for condition in leaf.where:
            refs.append(condition.lhs)
            if condition.rhs_ref is not None:
                refs.append(condition.rhs_ref)
        choice = BoundChoice(mode=leaf.mode,
                             admits=self.conjunction(leaf.where),
                             score=self.terms(leaf.score),
                             reads=frozenset(ref.name for ref in refs))
        return lambda context, subject: choice

    def node(self, node: Node) -> Bound:
        if isinstance(node, ConditionNode):
            holds = self.condition(node.condition)
            then = self.node(node.then)
            otherwise = self.node(node.otherwise)
            return lambda context, subject: (
                then(context, subject) if holds(context, subject)
                else otherwise(context, subject))
        if isinstance(node, ChooseLeaf):
            return self.choice(node)
        return self.expr(node.expr)


def bind_policy(policy: CompiledPolicy,
                accessors: Mapping[str, Reader]) -> Bound:
    """Bind *policy*'s tree to *accessors*, its domain's signal readers.

    Returns ``decide(context, subject)``, which runs the tree's
    conditions (each only on the taken path) down to one leaf: a
    ``value`` leaf gives its number, a ``choose`` leaf its
    :class:`BoundChoice`.  A signal the tree reads that *accessors*
    lacks is a :class:`~repro.errors.ValidationError` now, not at
    decision time.
    """
    return _Binder(policy, accessors).node(policy.tree)
