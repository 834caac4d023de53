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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

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

#: A resolver maps a compiled signal reference to its current value.
Resolver = Callable[["SignalRef"], float]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


@dataclass(frozen=True)
class SignalRef:
    """A compiled reference to one declared signal (plus fixed args)."""

    name: str
    args: Tuple[Tuple[str, float], ...] = ()

    def arg(self, key: str) -> float:
        """The value of reference argument *key* (must exist post-compile)."""
        for name, value in self.args:
            if name == key:
                return value
        raise KeyError(key)


@dataclass(frozen=True)
class Term:
    """One weighted addend of a score or sum expression."""

    weight: float
    ref: Optional[SignalRef] = None
    const: float = 0.0

    def value(self, resolve: Resolver) -> float:
        """This term's contribution under *resolve*."""
        base = resolve(self.ref) if self.ref is not None else self.const
        return self.weight * base


@dataclass(frozen=True)
class SumExpr:
    """A weighted sum of terms, optionally clamped to ``[lo, hi]``."""

    terms: Tuple[Term, ...]
    clamp: Optional[Tuple[float, float]] = None

    def value(self, resolve: Resolver) -> float:
        """Evaluate the sum (then clamp) under *resolve*."""
        total = 0.0
        for term in self.terms:
            total += term.value(resolve)
        if self.clamp is not None:
            lo, hi = self.clamp
            total = min(hi, max(lo, total))
        return total


@dataclass(frozen=True)
class Condition:
    """A typed comparison ``signal <op> (number | signal)``."""

    lhs: SignalRef
    op: str
    rhs_const: Optional[float] = None
    rhs_ref: Optional[SignalRef] = None

    def holds(self, resolve: Resolver) -> bool:
        """Whether the comparison is true under *resolve*."""
        left = resolve(self.lhs)
        right = (resolve(self.rhs_ref) if self.rhs_ref is not None
                 else self.rhs_const)
        return OPERATORS[self.op](left, right)


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

    def value(self, resolve: Resolver) -> float:
        """The leaf's number under *resolve*."""
        return self.expr.value(resolve)


@dataclass(frozen=True)
class ChooseLeaf:
    """An argmin/argmax-over-candidates leaf (placement trees)."""

    mode: str
    score: Tuple[Term, ...]
    where: Tuple[Condition, ...] = ()

    def admits(self, resolve: Resolver) -> bool:
        """Whether a candidate passes every ``where`` filter."""
        return all(cond.holds(resolve) for cond in self.where)

    def score_of(self, resolve: Resolver) -> float:
        """A candidate's score under *resolve*."""
        total = 0.0
        for term in self.score:
            total += term.value(resolve)
        return total


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

    def leaf(self, resolve: Resolver) -> Union[ValueLeaf, ChooseLeaf]:
        """The leaf the tree's conditions select under *resolve*."""
        node = self.tree
        while isinstance(node, ConditionNode):
            node = node.then if node.condition.holds(resolve) \
                else node.otherwise
        return node


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
