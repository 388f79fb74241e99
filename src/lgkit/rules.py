"""Weight rules.

A rule maps a full input bit string (an int) to a nonnegative weight.  Rules
record their *support*, the set of input positions they are allowed to read;
structural validation checks that an edge's rules read only positions loaded at
the edge's head.  Rules are immutable and compare by value, which the
composition code relies on when collapsing identical inner structures.
Weights are finite: constructors reject NaN and infinities.

A rule is evaluated column-wise, at an array of inputs (``rule.eval(zs)``);
it has no call at one input.  ``eval`` is one method on the base class.  It
looks every input up in the rule's table, the weights at the 2^|support|
assignments of its support, packed as :func:`lgkit.indexing.pack_index`
packs an input.  The table is cached on the (immutable) rule object, so a
rule shared by the steps of a pipeline or by the mutants of a graph is
computed at most twice: a first call on few inputs (under ``_TABLE_FIRST``)
runs the body on them instead, and a later call builds the table.  Each
class fills its table with its column-wise body (``_body``), which performs
the same IEEE operations in the same order as the scalar reference (below),
so both give the same bits.  Children of a composite rule (scale, product,
patch, dispatch) run their bodies on the parent's assignments and get no
table of their own.

The table is exact only because every rule reads nothing but its declared
support: a table entry is the body at an input that carries the same
support bits as the inputs mapped to it, and 0 elsewhere.  The tests in
``tests/test_columnwise.py`` compare ``eval`` and ``_body`` bit for bit with
``rule_at`` in ``tests/loop_reference.py``, the scalar body of each class
applied one input at a time (random rules over 8 positions on all 256
inputs, and again with bit 70 set, plus every rule of the corpus and
triangle graphs); they fail if a rule reads outside its support.  A rule
whose support has more than ``_PACKED_BITS`` positions gets no table:
``eval`` runs its body on the inputs directly.  A table or dispatch keyed
by that many positions finds each input's row with ``np.searchsorted`` over
its sorted packed row keys, cached on the rule, so its memory stays
O(rows + inputs).

The cost, validation and witness code evaluate column-wise, one array per
edge, and sum per input with ``math.fsum``, which is exactly rounded and so
independent of the order of the edges: exact identities (a dense load of k
positions costs k^2) hold with ``==``.

JSON forms use 1-based indices, matching the on-disk graph format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, ClassVar, Sequence

import numpy as np

from .indexing import all_assignments, assignment_key, bit_column, mask_of
from .indexing import pack_index, parse_assignment_key


class RuleError(ValueError):
    pass


# Lookup arrays have 2^len(indices) entries.  A rule whose support is wider
# than this has no table, and a table or dispatch keyed by more positions
# than this searches its sorted row keys instead.
_PACKED_BITS = 16

# A rule's first call runs its body unless it has at least this many inputs
# (and at least as many as the table has entries).  A table pays when it is
# used again, or at once when a call is large: the composition code prices
# most of the rules it makes once, on fewer inputs (at n=5, over 90% of its
# calls have under 256), while a chain prices every edge over all negatives
# or all positives.
_TABLE_FIRST = 256


def _packed_key(bits: Sequence[int]) -> int:
    """Index :func:`lgkit.indexing.pack_index` gives an input with these
    bits; -1 (no input) when a bit is neither 0 nor 1."""
    if any(b not in (0, 1) for b in bits):
        return -1
    return sum(b << k for k, b in enumerate(bits))


def _sorted_rows(
    rows: dict[tuple[int, ...], Any], default: Any, width: int, dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """The packed keys of the rows some input can match, sorted, and their
    values followed by ``default``: the lookup of a table or dispatch keyed
    by more than ``_PACKED_BITS`` positions.  Keys are int64, or Python ints
    past 62 positions, as :func:`lgkit.indexing.pack_index` gives them."""
    pairs = sorted(
        ((key, v) for bits, v in rows.items() if (key := _packed_key(bits)) >= 0),
        key=lambda kv: kv[0],
    )
    keys = np.array([k for k, _ in pairs], dtype=np.int64 if width <= 62 else object)
    return keys, np.array([v for _, v in pairs] + [default], dtype=dtype)


def _lookup(sorted_rows: tuple[np.ndarray, np.ndarray], idx: np.ndarray) -> np.ndarray:
    """The value of each packed input's row, or the default where no row
    matches it."""
    keys, values = sorted_rows
    at = np.searchsorted(keys, idx)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == idx[hit]
    return values[np.where(hit, at, len(keys))]


def _quiet() -> np.errstate:
    """Overflow to inf and inf times 0, silent as in Python float arithmetic."""
    return np.errstate(over="ignore", invalid="ignore")


def _check_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise RuleError(f"non-finite {what} {value}")


@dataclass(frozen=True)
class Rule:
    kind: ClassVar[str] = "abstract"

    @property
    def support(self) -> tuple[int, ...]:
        raise NotImplementedError

    def eval(
        self, zs: np.ndarray, packs: dict[tuple[int, ...], np.ndarray] | None = None
    ) -> np.ndarray:
        """Weights at every input of ``zs`` (see
        :func:`lgkit.indexing.input_array`) as float64: a lookup in the
        table, or the body on a first call on few inputs and when the
        support is too wide for a table.

        ``packs``, when given, keeps ``zs`` packed per support, for rules
        evaluated on the same ``zs`` one after another."""
        support = self.support
        if len(support) > _PACKED_BITS:
            return self._body(zs)
        if "_seen" not in self.__dict__ and len(zs) < max(
            _TABLE_FIRST, 1 << len(support)
        ):
            # frozen dataclass: record the call in the instance dict, as
            # cached_property stores its value
            self.__dict__["_seen"] = True
            return self._body(zs)
        if packs is None:
            return self._table[pack_index(zs, support)]
        idx = packs.get(support)
        if idx is None:
            idx = packs[support] = pack_index(zs, support)
        return self._table[idx]

    @cached_property
    def _table(self) -> np.ndarray:
        """Weight per packed assignment of the support: 2^len(support)
        entries, read-only."""
        table = self._body(all_assignments(self.support))
        table.flags.writeable = False
        return table

    def _body(self, zs: np.ndarray) -> np.ndarray:
        """Weights at every input of ``zs``, column-wise, reading only the
        support bits: fills the table, and runs directly on a first call on
        few inputs, for a support wider than ``_PACKED_BITS`` and for the
        children of a composite rule."""
        raise NotImplementedError

    def to_json(self) -> dict[str, Any]:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "Rule":
        kind = obj["rule"]
        cls = RULE_TYPES.get(kind)
        if cls is None:
            raise RuleError(f"unknown rule kind {kind!r}")
        return cls._parse(obj)


@dataclass(frozen=True)
class ConstRule(Rule):
    value: float
    kind: ClassVar[str] = "const"

    def __post_init__(self) -> None:
        _check_finite(self.value, "constant weight")
        if self.value < 0:
            raise RuleError(f"negative constant weight {self.value}")

    @property
    def support(self) -> tuple[int, ...]:
        return ()

    def _body(self, zs: np.ndarray) -> np.ndarray:
        return np.full(len(zs), self.value, dtype=np.float64)

    def to_json(self) -> dict[str, Any]:
        return {"rule": "const", "value": self.value}

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "ConstRule":
        return cls(float(obj["value"]))


ZERO = ConstRule(0.0)
ONE = ConstRule(1.0)


@dataclass(frozen=True)
class TableRule(Rule):
    """Lookup over a tuple of positions, with a default for missing rows.

    ``table`` maps bit tuples (aligned with ``indices``, which are kept
    sorted) to weights.
    """

    indices: tuple[int, ...]
    table: dict[tuple[int, ...], float] = field(compare=True)
    default: float = 0.0
    kind: ClassVar[str] = "table"

    def __post_init__(self) -> None:
        if tuple(sorted(self.indices)) != self.indices:
            raise RuleError("table indices must be sorted")
        if len(set(self.indices)) != len(self.indices):
            raise RuleError("duplicate table index")
        _check_finite(self.default, "default weight")
        if self.default < 0:
            raise RuleError("negative default weight")
        for bits, v in self.table.items():
            if len(bits) != len(self.indices):
                raise RuleError("table row arity mismatch")
            _check_finite(v, "table weight")
            if v < 0:
                raise RuleError(f"negative table weight {v}")

    @property
    def support(self) -> tuple[int, ...]:
        return self.indices

    @cached_property
    def _table(self) -> np.ndarray:
        """The rows' weights per packed index, built from the rows."""
        lut = np.full(1 << len(self.indices), self.default, dtype=np.float64)
        for bits, v in self.table.items():
            key = _packed_key(bits)
            if key >= 0:
                lut[key] = v
        lut.flags.writeable = False
        return lut

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        return _sorted_rows(self.table, self.default, len(self.indices), np.float64)

    def _body(self, zs: np.ndarray) -> np.ndarray:
        idx = pack_index(zs, self.indices)
        if len(self.indices) > _PACKED_BITS:
            return _lookup(self._rows, idx)
        return self._table[idx]

    def to_json(self) -> dict[str, Any]:
        rows = {
            assignment_key(self.indices, bits): v for bits, v in self.table.items()
        }
        return {
            "rule": "table",
            "rows": dict(sorted(rows.items())),
            "default": self.default,
        }

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "TableRule":
        indices: tuple[int, ...] | None = None
        table: dict[tuple[int, ...], float] = {}
        for key, v in obj["rows"].items():
            idx, bits = parse_assignment_key(key)
            if indices is None:
                indices = idx
            elif idx != indices:
                raise RuleError("table rows disagree on indices")
            table[bits] = float(v)
        return cls(indices or (), table, float(obj.get("default", 0.0)))


@dataclass(frozen=True)
class DenseLoadRule(Rule):
    """Weight of one step of a dense loading path: the path length, both sides."""

    size: int
    kind: ClassVar[str] = "dense-load"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise RuleError("dense load size must be positive")

    @property
    def support(self) -> tuple[int, ...]:
        return ()

    def _body(self, zs: np.ndarray) -> np.ndarray:
        return np.full(len(zs), float(self.size))

    def to_json(self) -> dict[str, Any]:
        return {"rule": "dense-load", "size": self.size}

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "DenseLoadRule":
        return cls(int(obj["size"]))


@dataclass(frozen=True)
class SparseLoadRule(Rule):
    """One step of a sparse loading path.

    ``path`` is the full ordered tuple of loaded positions, ``pos`` the 1-based
    step being weighted and ``side`` which of the two weight functions this rule
    is.  The step is cheap when the loaded bit equals ``side``; the cheap weight
    grows with the number of ones already loaded, the expensive weight is flat.
    """

    path: tuple[int, ...]
    pos: int
    side: int
    kind: ClassVar[str] = "sparse-load"

    def __post_init__(self) -> None:
        if not (1 <= self.pos <= len(self.path)):
            raise RuleError("sparse load step out of range")
        if self.side not in (0, 1):
            raise RuleError("side must be 0 or 1")

    @cached_property
    def support(self) -> tuple[int, ...]:
        return self.path[: self.pos]

    def _body(self, zs: np.ndarray) -> np.ndarray:
        n = len(self.path)
        scale = 3.0 * math.log(n + 1)
        ones = np.bitwise_count(zs & mask_of(self.path[: self.pos - 1]))
        w = (ones.astype(np.int64) + 1) * scale
        w[(zs >> self.path[self.pos - 1]) & 1 != self.side] = n * scale
        return w

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": "sparse-load",
            "N": len(self.path),
            "pos": self.pos,
            "side": self.side,
            "path": [i + 1 for i in self.path],
        }

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "SparseLoadRule":
        path = tuple(int(i) - 1 for i in obj["path"])
        if len(path) != int(obj["N"]):
            raise RuleError("sparse load path length disagrees with N")
        return cls(path, int(obj["pos"]), int(obj["side"]))


@dataclass(frozen=True)
class ScaleRule(Rule):
    factor: float
    inner: Rule
    kind: ClassVar[str] = "scale"

    def __post_init__(self) -> None:
        _check_finite(self.factor, "scale factor")
        if self.factor < 0:
            raise RuleError(f"negative scale factor {self.factor}")

    @property
    def support(self) -> tuple[int, ...]:
        return self.inner.support

    def _body(self, zs: np.ndarray) -> np.ndarray:
        w = self.inner._body(zs)
        with _quiet():
            return self.factor * w

    def to_json(self) -> dict[str, Any]:
        return {"rule": "scale", "factor": self.factor, "inner": self.inner.to_json()}

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "ScaleRule":
        return cls(float(obj["factor"]), Rule.from_json(obj["inner"]))


@dataclass(frozen=True)
class ProductRule(Rule):
    """Pointwise product, used when a host scale multiplies an embedded rule."""

    left: Rule
    right: Rule
    kind: ClassVar[str] = "product"

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.left.support) | set(self.right.support)))

    def _body(self, zs: np.ndarray) -> np.ndarray:
        left = self.left._body(zs)
        right = self.right._body(zs)
        with _quiet():
            return left * right

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": "product",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "ProductRule":
        return cls(Rule.from_json(obj["left"]), Rule.from_json(obj["right"]))


@dataclass(frozen=True)
class CandidatePairRule(Rule):
    """0/1 gate for a final pair probe.

    Fires when every position in ``required`` is 1 and no pair in ``blocked``
    is fully 1.  Used for the last search step of the triangle graphs, where
    ``required`` holds the two loaded adjacencies to the walk anchor and
    ``blocked`` the adjacency pairs that would hand the pair to an excluded
    vertex.
    """

    required: tuple[int, ...]
    blocked: tuple[tuple[int, int], ...] = ()
    kind: ClassVar[str] = "candidate-pair"

    @cached_property
    def support(self) -> tuple[int, ...]:
        flat = set(self.required)
        for a, b in self.blocked:
            flat.add(a)
            flat.add(b)
        return tuple(sorted(flat))

    def _body(self, zs: np.ndarray) -> np.ndarray:
        fires = np.ones(len(zs), dtype=bool)
        for i in self.required:
            fires &= bit_column(zs, i) == 1
        for a, b in self.blocked:
            fires &= (bit_column(zs, a) & bit_column(zs, b)) == 0
        return fires.astype(np.float64)

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": "candidate-pair",
            "required": [i + 1 for i in self.required],
            "blocked": [[a + 1, b + 1] for a, b in self.blocked],
        }

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "CandidatePairRule":
        return cls(
            tuple(int(i) - 1 for i in obj["required"]),
            tuple((int(a) - 1, int(b) - 1) for a, b in obj.get("blocked", [])),
        )


@dataclass(frozen=True)
class PatchRule(Rule):
    """Multiply the inner weight by ``factor`` on one partial assignment.

    Exists for fault injection in tests (breaking the linking condition on a
    single edge and assignment); compositions never emit it.
    """

    indices: tuple[int, ...]
    bits: tuple[int, ...]
    factor: float
    inner: Rule
    kind: ClassVar[str] = "patch"

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.bits):
            raise RuleError("patch arity mismatch")
        _check_finite(self.factor, "patch factor")
        if self.factor < 0:
            raise RuleError("negative patch factor")

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.indices) | set(self.inner.support)))

    def _body(self, zs: np.ndarray) -> np.ndarray:
        w = self.inner._body(zs)
        # a bit value other than 0 or 1 never matches
        hit = np.ones(len(zs), dtype=bool)
        for i, b in zip(self.indices, self.bits):
            hit &= bit_column(zs, i) == b
        with _quiet():
            return np.where(hit, self.factor * w, w)

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": "patch",
            "at": assignment_key(self.indices, self.bits),
            "factor": self.factor,
            "inner": self.inner.to_json(),
        }

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "PatchRule":
        idx, bits = parse_assignment_key(obj["at"])
        return cls(idx, bits, float(obj["factor"]), Rule.from_json(obj["inner"]))


@dataclass(frozen=True)
class DispatchRule(Rule):
    """Select a rule by the values of ``indices``; fall back to ``default``.

    Lets one embedded structure carry different weights per surrounding
    context, keyed by already-loaded positions.
    """

    indices: tuple[int, ...]
    cases: dict[tuple[int, ...], Rule] = field(compare=True)
    default: Rule = ZERO
    kind: ClassVar[str] = "dispatch"

    def __post_init__(self) -> None:
        if tuple(sorted(self.indices)) != self.indices:
            raise RuleError("dispatch indices must be sorted")
        for bits in self.cases:
            if len(bits) != len(self.indices):
                raise RuleError("dispatch key arity mismatch")

    @cached_property
    def support(self) -> tuple[int, ...]:
        flat = set(self.indices) | set(self.default.support)
        for rule in self.cases.values():
            flat |= set(rule.support)
        return tuple(sorted(flat))

    @cached_property
    def _routes(self) -> np.ndarray:
        """Rule number per packed index (2^len(indices) entries): the
        case's place among the cases, or their count for the default."""
        lut = np.full(1 << len(self.indices), len(self.cases), dtype=np.int64)
        for k, bits in enumerate(self.cases):
            key = _packed_key(bits)
            if key >= 0:
                lut[key] = k
        return lut

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rule numbers of ``_routes`` by sorted packed key."""
        cases = {bits: k for k, bits in enumerate(self.cases)}
        return _sorted_rows(cases, len(cases), len(self.indices), np.int64)

    def _body(self, zs: np.ndarray) -> np.ndarray:
        idx = pack_index(zs, self.indices)
        if len(self.indices) > _PACKED_BITS:
            which = _lookup(self._rows, idx)
        else:
            which = self._routes[idx]
        rules = [*self.cases.values(), self.default]
        # each rule is evaluated only on the inputs routed to it
        out = np.empty(len(zs), dtype=np.float64)
        order = np.argsort(which, kind="stable")
        cuts = np.flatnonzero(np.diff(which[order])) + 1
        for sel in np.split(order, cuts) if len(zs) else ():
            out[sel] = rules[which[sel[0]]]._body(zs[sel])
        return out

    def to_json(self) -> dict[str, Any]:
        rows = {
            assignment_key(self.indices, bits): rule.to_json()
            for bits, rule in self.cases.items()
        }
        return {
            "rule": "dispatch",
            "cases": dict(sorted(rows.items())),
            "default": self.default.to_json(),
        }

    @classmethod
    def _parse(cls, obj: dict[str, Any]) -> "DispatchRule":
        indices: tuple[int, ...] | None = None
        cases: dict[tuple[int, ...], Rule] = {}
        for key, sub in obj["cases"].items():
            idx, bits = parse_assignment_key(key)
            if indices is None:
                indices = idx
            elif idx != indices:
                raise RuleError("dispatch cases disagree on indices")
            cases[bits] = Rule.from_json(sub)
        return cls(indices or (), cases, Rule.from_json(obj["default"]))


def scaled(factor: float, rule: Rule) -> Rule:
    """Scale a rule, folding constants and dropping redundant wrappers."""
    if factor == 1.0:
        return rule
    if isinstance(rule, ConstRule):
        return ConstRule(factor * rule.value)
    if isinstance(rule, ScaleRule):
        return ScaleRule(factor * rule.factor, rule.inner)
    return ScaleRule(factor, rule)


def host_product(host: Rule, rule: Rule) -> Rule:
    """``rule`` multiplied by the host rule ``host``: a constant host folds
    through :func:`scaled`, any other host gives their product."""
    if isinstance(host, ConstRule):
        return scaled(host.value, rule)
    return ProductRule(host, rule)


RULE_TYPES: dict[str, type[Rule]] = {
    cls.kind: cls
    for cls in (
        ConstRule,
        TableRule,
        DenseLoadRule,
        SparseLoadRule,
        ScaleRule,
        ProductRule,
        CandidatePairRule,
        PatchRule,
        DispatchRule,
    )
}
