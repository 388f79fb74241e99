"""Weight rules.

A rule maps a full input bit string (an int) to a nonnegative weight.  Rules
record their *support*, the set of input positions they are allowed to read;
structural validation checks that an edge's rules read only positions loaded at
the edge's head.  Rules are immutable and compare by value, which the
composition code relies on when collapsing identical inner structures.
Weights are finite: constructors reject NaN and infinities.

A rule is evaluated either at one input (``rule(z)``, the scalar reference)
or column-wise at an array of inputs (``rule.eval(zs)``).  ``eval`` performs
the same IEEE operations in the same order as the scalar call, so both give
the same bits.  The cost, validation and witness code evaluate column-wise,
one array per edge, and sum per input with ``math.fsum``, which is exactly
rounded and so independent of the order of the edges: exact identities (a
dense load of k positions costs k^2) hold with ``==``.

JSON forms use 1-based indices, matching the on-disk graph format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, ClassVar, Sequence

import numpy as np

from .indexing import assignment_key, bit_column, pack_bits, parse_assignment_key


class RuleError(ValueError):
    pass


# Lookup arrays have 2^len(indices) entries; a table or dispatch that reads
# more positions than this is evaluated input by input.
_PACKED_BITS = 16


def _each_input(rule: "Rule", zs: np.ndarray) -> np.ndarray:
    return np.array([rule(z) for z in zs.tolist()], dtype=np.float64)


def _pack(zs: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Bits ``indices`` of every input, packed into an index: bit ``k`` of
    the index is bit ``indices[k]`` of the input."""
    idx = np.zeros(len(zs), dtype=np.int64)
    for k, i in enumerate(indices):
        idx |= bit_column(zs, i) << k
    return idx


def _packed_key(bits: Sequence[int]) -> int:
    """Index :func:`_pack` gives an input with these bits; -1 (no input)
    when a bit is neither 0 nor 1."""
    if any(b not in (0, 1) for b in bits):
        return -1
    return sum(b << k for k, b in enumerate(bits))


def _quiet() -> np.errstate:
    """Overflow to inf and inf times 0, silent as in the scalar call."""
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

    def __call__(self, z: int) -> float:
        raise NotImplementedError

    def eval(self, zs: np.ndarray) -> np.ndarray:
        """Weights at every input of ``zs`` as float64, bit for bit equal to
        calling the rule at each input (see :func:`lgkit.indexing.input_array`)."""
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

    def __call__(self, z: int) -> float:
        return self.value

    def eval(self, zs: np.ndarray) -> np.ndarray:
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

    def __call__(self, z: int) -> float:
        return self.table.get(pack_bits(z, self.indices), self.default)

    @cached_property
    def _lookup(self) -> np.ndarray:
        """Weight per packed index: 2^len(indices) entries."""
        lut = np.full(1 << len(self.indices), self.default, dtype=np.float64)
        for bits, v in self.table.items():
            key = _packed_key(bits)
            if key >= 0:
                lut[key] = v
        return lut

    def eval(self, zs: np.ndarray) -> np.ndarray:
        if len(self.indices) > _PACKED_BITS:
            return _each_input(self, zs)
        return self._lookup[_pack(zs, self.indices)]

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

    def __call__(self, z: int) -> float:
        return float(self.size)

    def eval(self, zs: np.ndarray) -> np.ndarray:
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

    @property
    def support(self) -> tuple[int, ...]:
        return self.path[: self.pos]

    def __call__(self, z: int) -> float:
        n = len(self.path)
        scale = 3.0 * math.log(n + 1)
        if (z >> self.path[self.pos - 1]) & 1 == self.side:
            ones = sum((z >> i) & 1 for i in self.path[: self.pos - 1])
            return (ones + 1) * scale
        return n * scale

    def eval(self, zs: np.ndarray) -> np.ndarray:
        n = len(self.path)
        scale = 3.0 * math.log(n + 1)
        ones = np.zeros(len(zs), dtype=np.int64)
        for i in self.path[: self.pos - 1]:
            ones += bit_column(zs, i)
        cheap = bit_column(zs, self.path[self.pos - 1]) == self.side
        return np.where(cheap, (ones + 1) * scale, n * scale)

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

    def __call__(self, z: int) -> float:
        return self.factor * self.inner(z)

    def eval(self, zs: np.ndarray) -> np.ndarray:
        w = self.inner.eval(zs)
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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.left.support) | set(self.right.support)))

    def __call__(self, z: int) -> float:
        return self.left(z) * self.right(z)

    def eval(self, zs: np.ndarray) -> np.ndarray:
        left = self.left.eval(zs)
        right = self.right.eval(zs)
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

    @property
    def support(self) -> tuple[int, ...]:
        flat = set(self.required)
        for a, b in self.blocked:
            flat.add(a)
            flat.add(b)
        return tuple(sorted(flat))

    def __call__(self, z: int) -> float:
        for i in self.required:
            if not (z >> i) & 1:
                return 0.0
        for a, b in self.blocked:
            if (z >> a) & 1 and (z >> b) & 1:
                return 0.0
        return 1.0

    def eval(self, zs: np.ndarray) -> np.ndarray:
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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.indices) | set(self.inner.support)))

    def __call__(self, z: int) -> float:
        w = self.inner(z)
        if pack_bits(z, self.indices) == self.bits:
            return self.factor * w
        return w

    def eval(self, zs: np.ndarray) -> np.ndarray:
        w = self.inner.eval(zs)
        # a bit value other than 0 or 1 never matches, as in the scalar call
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

    @property
    def support(self) -> tuple[int, ...]:
        flat = set(self.indices) | set(self.default.support)
        for rule in self.cases.values():
            flat |= set(rule.support)
        return tuple(sorted(flat))

    def __call__(self, z: int) -> float:
        rule = self.cases.get(pack_bits(z, self.indices), self.default)
        return rule(z)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, list[Rule]]:
        """Rule number per packed index (2^len(indices) entries), and the
        rules: the cases, then the default."""
        rules = list(self.cases.values())
        lut = np.full(1 << len(self.indices), len(rules), dtype=np.int64)
        for k, bits in enumerate(self.cases):
            key = _packed_key(bits)
            if key >= 0:
                lut[key] = k
        return lut, rules + [self.default]

    def eval(self, zs: np.ndarray) -> np.ndarray:
        if len(self.indices) > _PACKED_BITS:
            return _each_input(self, zs)
        lut, rules = self._lookup
        which = lut[_pack(zs, self.indices)]
        # each rule is evaluated only on the inputs routed to it
        out = np.empty(len(zs), dtype=np.float64)
        order = np.argsort(which, kind="stable")
        cuts = np.flatnonzero(np.diff(which[order])) + 1
        for sel in np.split(order, cuts) if len(zs) else ():
            out[sel] = rules[which[sel[0]]].eval(zs[sel])
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
