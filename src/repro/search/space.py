"""Combinatorial design spaces declared without materialisation.

A :class:`SearchSpace` generalises the sweep grammar to spaces far too
large to expand: an ordered list of axes over a base
:class:`~repro.api.spec.MachineSpec`, where each axis is

* a plain parameter axis (``l2_size`` over a value list),
* a **coupled** axis binding several fields at once
  (``"pipeline_stages,frequency_mhz"`` with tuple values — the paper ties
  depth to clock), or
* a **conditional** axis that only opens up when a ``when`` clause over
  earlier axes holds (``l2_associativity`` choices only for large L2s,
  say); while inactive it contributes exactly one choice (the base
  machine's value).

Points are addressed by a single integer index with the leftmost axis
most significant — the same row-major order ``itertools.product`` (and
the sweep grammar) uses — so ``space.spec(i)`` is deterministic and
:meth:`~SearchSpace.sample` draws reproducible seeded subsets of
million-point spaces in O(sample size).

Decoding is compiled once per space.  The first
:meth:`~SearchSpace.cardinality`, :meth:`~SearchSpace.overrides` or
:meth:`~SearchSpace.index_of` call parses every ``when`` clause and builds
one table of subtree sizes keyed on (axis, values of the fields that
axis's and later axes' ``when`` clauses read).  Only those fields decide
how many points lie below a choice, so the table stays small however
large the space is.  After that, ``cardinality()`` is O(1), and
``overrides(i)`` and ``index_of`` are one mixed-radix walk over the axes
(Knuth, TAOCP 4A §7.2.1.1): O(axes), never O(points).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.api.spec import MachineSpec
from repro.api.sweep import _freeze
from repro.machine import SIZE_FIELDS, parse_size
from repro.search.objectives import Constraint

#: Version stamped into serialized spaces.
SPACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpaceAxis:
    """One axis of a search space (plain, coupled or conditional)."""

    key: str
    values: tuple
    #: Constraint source over *earlier* axes' fields (or base values);
    #: while it does not hold the axis is inactive (one choice: the base).
    when: str | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.key!r} has no values")
        if None in self.values:
            # None is how a decoded point marks an inactive axis.
            raise ValueError(f"axis {self.key!r}: null is not a value")
        for field_name in self.fields:
            if not field_name:
                raise ValueError(f"malformed axis key {self.key!r}")
        if len(self.fields) > 1:
            for value in self.values:
                if not isinstance(value, tuple) or len(value) != len(self.fields):
                    raise ValueError(
                        f"coupled axis {self.key!r} needs "
                        f"{len(self.fields)}-tuples, got {value!r}"
                    )

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self.key.split(","))

    @property
    def condition(self) -> Constraint | None:
        if self.when is None:
            return None
        condition = Constraint.parse(self.when)
        if not condition.on_machine:
            raise ValueError(
                f"axis {self.key!r}: 'when' must test a machine parameter, "
                f"got {self.when!r}"
            )
        return condition

    def overrides_for(self, value) -> dict[str, object]:
        """The machine overrides one chosen value contributes."""
        names = self.fields
        if len(names) == 1:
            return {names[0]: value}
        return dict(zip(names, value))

    def to_dict(self) -> dict:
        payload: dict = {
            "axis": self.key,
            "values": [list(v) if isinstance(v, tuple) else v
                       for v in self.values],
        }
        if self.when is not None:
            payload["when"] = self.when
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpaceAxis":
        unknown = sorted(set(payload) - {"axis", "values", "when"})
        if unknown:
            raise ValueError(
                f"unknown axis keys {unknown}; allowed: "
                "['axis', 'values', 'when']"
            )
        return cls(key=payload["axis"], values=_freeze(payload["values"]),
                   when=payload.get("when"))


@dataclass(frozen=True)
class SearchSpace:
    """An indexable cross product of axes over a base machine spec."""

    axes: tuple[SpaceAxis, ...]
    base: MachineSpec = field(default_factory=MachineSpec)
    #: Optional point-name template over axis fields; ``{field}`` expands
    #: to the chosen value, ``{field_kb}`` to ``value // 1024`` — enough
    #: to reproduce legacy config names (Table 2) through the adapter.
    name_template: str | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for axis in self.axes:
            for field_name in axis.fields:
                if field_name in seen:
                    raise ValueError(
                        f"field {field_name!r} appears on more than one axis"
                    )
                seen.add(field_name)

    @classmethod
    def make(cls, axes: "Mapping | Sequence", *, base=None,
             name_template: str | None = None) -> "SearchSpace":
        """Build a space from friendly inputs.

        ``axes`` is either a mapping ``{key: values}`` (the sweep-grammar
        shape, all axes unconditional) or a sequence of axis dicts
        (``{"axis": ..., "values": ..., "when": ...}``) /
        :class:`SpaceAxis` objects.
        """
        if isinstance(axes, Mapping):
            parsed = tuple(SpaceAxis(key=key, values=_freeze(values))
                           for key, values in axes.items())
        else:
            parsed = tuple(
                axis if isinstance(axis, SpaceAxis) else SpaceAxis.from_dict(axis)
                for axis in axes
            )
        return cls(axes=parsed,
                   base=MachineSpec.parse(base if base is not None else {}),
                   name_template=name_template)

    # ------------------------------------------------------------------
    # Counting and indexing.
    # ------------------------------------------------------------------
    @cached_property
    def _compiled(self) -> "_CompiledSpace":
        return _CompiledSpace(self)

    def cardinality(self) -> int:
        """Exact number of points, computed without enumeration."""
        return self._compiled.cardinality

    def __len__(self) -> int:
        return self.cardinality()

    def overrides(self, index: int) -> dict[str, object]:
        """Decode a point index into its machine overrides (no name)."""
        compiled = self._compiled
        if not 0 <= index < compiled.cardinality:
            raise IndexError(
                f"point index {index} out of range for a space of "
                f"{compiled.cardinality} points"
            )
        overrides: dict[str, object] = {}
        key = compiled.root
        for names, level in zip(compiled.fields, compiled.levels):
            choices, starts, children = level[key]
            position = bisect_right(starts, index) - 1
            index -= starts[position]
            value = choices[position]
            if value is not None:
                overrides.update(zip(names, value if len(names) > 1
                                     else (value,)))
            key = children[position]
        return overrides

    def index_of(self, overrides: Mapping[str, object]) -> int:
        """The point index whose decode equals ``overrides`` (the inverse
        of :meth:`overrides`); :class:`KeyError` if no point matches —
        e.g. a value not on its axis, or a conditional axis's field bound
        while the axis is inactive."""
        compiled = self._compiled
        index = 0
        key = compiled.root
        for axis, names, level in zip(self.axes, compiled.fields,
                                      compiled.levels):
            if all(name in overrides for name in names):
                target = (overrides[names[0]] if len(names) == 1
                          else tuple(overrides[name] for name in names))
            else:
                target = None
            choices, starts, children = level[key]
            try:
                position = choices.index(target)
            except ValueError:
                raise KeyError(
                    f"no point of this space assigns {target!r} to axis "
                    f"{axis.key!r} under {dict(overrides)!r}"
                ) from None
            index += starts[position]
            key = children[position]
        return index

    def point_name(self, overrides: Mapping[str, object]) -> str | None:
        """Render the name template for one decoded point (if any)."""
        if self.name_template is None:
            return None
        machine = self._compiled.machine
        values: dict[str, object] = {}
        for axis in self.axes:
            for field_name in axis.fields:
                value = overrides.get(field_name,
                                      getattr(machine, field_name, None))
                if field_name in SIZE_FIELDS and value is not None:
                    value = parse_size(value)
                values[field_name] = value
                if isinstance(value, int):
                    values[f"{field_name}_kb"] = value // 1024
        return self.name_template.format(**values)

    def spec(self, index: int) -> MachineSpec:
        """The :class:`MachineSpec` of one point (named via the template)."""
        overrides = self.overrides(index)
        name = self.point_name(overrides)
        if name is not None:
            overrides = {**overrides, "name": name}
        return self.base.with_overrides(**overrides)

    def specs(self, indices: Iterable[int]) -> list[MachineSpec]:
        return [self.spec(index) for index in indices]

    # ------------------------------------------------------------------
    # Seeded sampling.
    # ------------------------------------------------------------------
    def sample(self, count: int, seed: int, *,
               exclude: Iterable[int] = ()) -> list[int]:
        """``count`` distinct point indices, deterministic given ``seed``.

        Indices in ``exclude`` are never drawn.  Small spaces fall back to
        a seeded shuffle of the full remainder; large spaces use rejection
        sampling, so the cost is O(count), not O(cardinality).  Asking for
        more points than remain returns every remaining index (ascending).
        """
        if count < 0:
            raise ValueError("sample count must be non-negative")
        cardinality = self.cardinality()
        excluded = set(exclude)
        remaining = cardinality - len(excluded)
        rng = random.Random(seed)
        if count >= remaining:
            return [index for index in range(cardinality)
                    if index not in excluded]
        if cardinality <= max(4 * (count + len(excluded)), 4096):
            pool = [index for index in range(cardinality)
                    if index not in excluded]
            rng.shuffle(pool)
            return pool[:count]
        picked: list[int] = []
        seen = set(excluded)
        while len(picked) < count:
            candidate = rng.randrange(cardinality)
            if candidate in seen:
                continue
            seen.add(candidate)
            picked.append(candidate)
        return picked

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict = {
            "schema_version": SPACE_SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }
        if self.name_template is not None:
            payload["name_template"] = self.name_template
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SearchSpace":
        unknown = sorted(set(payload)
                         - {"schema_version", "base", "axes", "name_template"})
        if unknown:
            raise ValueError(
                f"unknown search-space keys {unknown}; allowed: "
                "['axes', 'base', 'name_template', 'schema_version']"
            )
        if "axes" not in payload:
            raise ValueError("search space needs an 'axes' list")
        return cls.make(payload["axes"], base=payload.get("base", {}),
                        name_template=payload.get("name_template"))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpace":
        return cls.from_dict(json.loads(text))


#: Key slot of a field no earlier axis or base value binds (only the
#: derived ``area_proxy`` can be one).
_UNBOUND = object()


class _CompiledSpace:
    """The decode tables of one :class:`SearchSpace`, built once.

    ``levels[i]`` maps a key (the values of the fields that the ``when``
    clauses of axis ``i`` and later axes read) to the node ``(choices,
    starts, children)``.  ``choices`` are the axis's effective choices,
    ``(None,)`` (keep the base value) while the axis is inactive.
    ``starts`` holds the first index below each choice, and ``starts[-1]``
    is the subtree size.  ``children`` holds the key each choice leads to
    on the next level.
    """

    def __init__(self, space: SearchSpace):
        self.axes = space.axes
        self.fields = tuple(axis.fields for axis in space.axes)
        self.machine = space.base.resolve()
        self.conditions = [axis.condition for axis in space.axes]
        # live[i]: the fields the when clauses of axes i.. read, in key order.
        self.live: list[tuple[str, ...]] = [()]
        for condition in reversed(self.conditions):
            names = set(self.live[0])
            if condition is not None:
                names.add(condition.path)
            self.live.insert(0, tuple(sorted(names)))
        self.levels: list[dict[tuple, tuple]] = [{} for _ in space.axes]
        self.root = tuple(
            _UNBOUND if name == "area_proxy" else getattr(self.machine, name)
            for name in self.live[0])
        self.cardinality = self._size(0, self.root)

    def _size(self, axis_index: int, key: tuple) -> int:
        """Points below one node, building it (and those under it) first."""
        if axis_index == len(self.axes):
            return 1
        level = self.levels[axis_index]
        if key not in level:
            level[key] = self._node(axis_index, key)
        return level[key][1][-1]

    def _node(self, axis_index: int, key: tuple) -> tuple:
        axis = self.axes[axis_index]
        bound = dict(zip(self.live[axis_index], key))
        condition = self.conditions[axis_index]
        choices = axis.values
        if condition is not None:
            value = bound[condition.path]
            if value is _UNBOUND:
                raise ValueError(
                    f"axis {axis.key!r}: 'when' tests {condition.path!r}, "
                    "which no earlier axis or base override assigns"
                )
            if not condition.admits_value(value):
                choices = (None,)
        starts, children = [0], []
        for value in choices:
            child = dict(bound)
            if value is not None:
                child.update(axis.overrides_for(value))
            children.append(tuple(child[name]
                                  for name in self.live[axis_index + 1]))
            starts.append(starts[-1] + self._size(axis_index + 1, children[-1]))
        return choices, tuple(starts), tuple(children)
