"""Core domain types and exact arithmetic.

Everything downstream (the online policy, the offline solvers, the
certification harness) works over these types.  Two rules keep the whole
artifact bit-exact:

* packet values, profits and ratios are arbitrary-precision rationals
  (`fractions.Fraction`, aliased ``Rat``), never floats.  Inside a run they
  are carried as integer weights, value * :attr:`Instance.scale` (the LCM of
  the instance's value denominators), so sums and comparisons within one
  instance are integer arithmetic, and two instances' ratios compare by
  cross-multiplying weights.  In this module a ``Fraction`` is built only
  by :func:`parse_value` and by :func:`profit`, which sums a schedule's
  integer weights and divides once; downstream, only where a packet value
  is made (a value grid, an instance family, a witness's simplified value)
  or a value is rendered (a finding, a row, a summary, ``run``,
  ``compare``), and in the enumeration oracle the tests run.  A report's
  two totals and a summary's argmax stay integer weights;
* every threshold test against R = (1+sqrt17)/4 and alpha = (-3+sqrt17)/2
  is x <= R*y (:func:`le_r_times`) or x >= alpha*y (:func:`ge_alpha_times`),
  decided in closed form from cross-multiplied integers; :class:`Quad17`
  (the field Q(sqrt17) with an exact sign) is kept only as their reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "Rat",
    "parse_value",
    "render_value",
    "render_decimal",
    "Quad17",
    "R",
    "ALPHA",
    "quad_cmp",
    "le_r_times",
    "ge_alpha_times",
    "Packet",
    "rank_key",
    "Instance",
    "Violation",
    "validate_instance",
    "profit",
    "InfeasibleScheduleError",
    "InstanceFormatError",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "dump_instance",
    "instance_hash",
]

Rat = Fraction

_VALUE_RE = re.compile(r"^-?\d+(/\d+)?$")


class InstanceFormatError(ValueError):
    """Raised when an instance file or dict is malformed."""


class InfeasibleScheduleError(ValueError):
    """Raised when a schedule violates release/deadline/uniqueness rules."""


def parse_value(raw: object) -> Rat:
    """Parse a packet value: a JSON integer or a "num" / "num/den" string.

    Floats are rejected outright so no binary rounding can sneak into the
    exact pipeline.
    """
    if isinstance(raw, bool):
        raise InstanceFormatError(f"value must be an integer or fraction string, got {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise InstanceFormatError(f"float values are not accepted (got {raw!r}); use 'num/den' strings")
    if isinstance(raw, str):
        if not _VALUE_RE.match(raw.strip()):
            raise InstanceFormatError(f"cannot parse value {raw!r}; expected 'n' or 'n/d'")
        try:
            return Fraction(raw.strip())
        except ZeroDivisionError:
            raise InstanceFormatError(f"value {raw!r} has a zero denominator") from None
    raise InstanceFormatError(f"value must be an integer or fraction string, got {type(raw).__name__}")


def render_value(x: Rat) -> str:
    """Render a rational as 'n' or 'n/d'; parse_value(render_value(x)) == x."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


#: Places after the point in every rendered decimal.
DECIMAL_PLACES = 12


def render_decimal(x: Rat) -> str:
    """Round-half-even decimal rendering with DECIMAL_PLACES places.

    Purely presentational: verdicts are never derived from this output.
    """
    scaled = round(x * 10**DECIMAL_PLACES)  # Fraction rounding is exact (banker's)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**DECIMAL_PLACES)
    return f"{sign}{whole}.{frac:0{DECIMAL_PLACES}d}"


@dataclass(frozen=True)
class Quad17:
    """An element a + b*sqrt(17) of the real quadratic field Q(sqrt17).

    Addition, subtraction and multiplication are closed and exact; the sign
    of an element is decided by comparing a^2 against 17*b^2.  It computes
    no verdict: it is the reference :func:`le_r_times` and
    :func:`ge_alpha_times` are tested against, and it states the identities of R and ALPHA.
    """

    a: Rat
    b: Rat = Fraction(0)

    @staticmethod
    def of(x: "Quad17 | Rat | int") -> "Quad17":
        if isinstance(x, Quad17):
            return x
        return Quad17(Fraction(x))

    def __add__(self, other: "Quad17 | Rat | int") -> "Quad17":
        o = Quad17.of(other)
        return Quad17(self.a + o.a, self.b + o.b)

    def __sub__(self, other: "Quad17 | Rat | int") -> "Quad17":
        o = Quad17.of(other)
        return Quad17(self.a - o.a, self.b - o.b)

    def __mul__(self, other: "Quad17 | Rat | int") -> "Quad17":
        o = Quad17.of(other)
        return Quad17(self.a * o.a + 17 * self.b * o.b, self.a * o.b + self.b * o.a)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(17): -1, 0 or +1."""
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa * sb >= 0:  # no mixed signs: the nonzero one, if any, wins
            return sa or sb
        c = a * a - 17 * b * b  # mixed signs: |a| vs |b|*sqrt(17)
        return sa * ((c > 0) - (c < 0))

    def __le__(self, other: "Quad17 | Rat | int") -> bool:
        return (self - other).sign() <= 0

    def __repr__(self) -> str:
        return f"Quad17({render_value(self.a)} + {render_value(self.b)}*sqrt17)"


#: Competitive-ratio constant (1 + sqrt17) / 4, approx. 1.2808.
R = Quad17(Fraction(1, 4), Fraction(1, 4))

#: Threshold constant (-3 + sqrt17) / 2, approx. 0.5616.
ALPHA = Quad17(Fraction(-3, 2), Fraction(1, 2))


def quad_cmp(x: Quad17 | Rat | int, y: Quad17 | Rat | int) -> int:
    """Exact three-way comparison of two field elements: -1, 0 or +1."""
    return (Quad17.of(x) - Quad17.of(y)).sign()


def le_r_times(x: Rat, y: Rat) -> bool:
    """Exact x <= R*y for rationals of any sign: scaled by 4*den(x)*den(y)
    it reads d <= s*sqrt17 with s = num(y)*den(x), d = 4*num(x)*den(y) - s."""
    s = y.numerator * x.denominator
    d = 4 * x.numerator * y.denominator - s
    if s >= 0:
        return d <= 0 or d * d <= 17 * s * s
    return d < 0 and d * d >= 17 * s * s


def ge_alpha_times(x: Rat, y: Rat) -> bool:
    """Exact x >= ALPHA*y for rationals of any sign: scaled by 2*den(x)*den(y)
    it reads e >= s*sqrt17 with s = num(y)*den(x), e = 2*num(x)*den(y) + 3*s."""
    s = y.numerator * x.denominator
    e = 2 * x.numerator * y.denominator + 3 * s
    if s >= 0:
        return e >= 0 and e * e >= 17 * s * s
    return e >= 0 or e * e <= 17 * s * s


@dataclass(frozen=True, slots=True)
class Packet:
    """One packet: transmittable at integer slots in [release, deadline].

    All instances here are 2-bounded: deadline - release is 0 or 1, i.e.
    each packet has at most two chances to be sent.
    """

    id: int
    release: int
    deadline: int
    value: Rat

    def is_two_packet_at(self, t: int) -> bool:
        """True if this packet is released at t with deadline t+1."""
        return self.release == t and self.deadline == t + 1


def rank_key(p: Packet, weight) -> tuple:
    """The tie rule that pins every optimum down, written once: value desc,
    deadline asc, release asc, id asc, with `weight` the packet's value at
    any common positive scale.  Every reader looks it up in this module when
    it runs, each query engine once per run, so rebinding ``model.rank_key``
    changes every later optimum at once, of a checked instance too."""
    return (-weight, p.deadline, p.release, p.id)


class Instance:
    """An input: a sequence of packets, ids unique.

    Plain data: the constructor indexes the packets in one pass, so every
    per-instance view below is a plain attribute read, and it never raises,
    whatever the packets; the solver's rank index, which needs the tie rule
    and 2-bounded packets, is built per run by the query engine.  Equality,
    hashing, ``repr`` and pickling read only ``packets``.  A plain slotted
    class, not a frozen dataclass, because a frozen dataclass sets each
    field through ``object.__setattr__`` and a grid campaign builds one
    instance per base; instances are never modified after construction.

    * ``horizon``: the largest deadline; -1 for the empty instance.
    * ``arrivals``: release time -> the packets released then, in order.
    * ``scale``: the LCM of the value denominators; 1 for the empty instance.
    * ``weights``: packet id -> its integer weight, value * scale.
    """

    __slots__ = ("packets", "horizon", "_id_map", "arrivals", "scale", "weights")

    def __init__(self, packets: Iterable[Packet]):
        self.packets = packets = tuple(packets)
        id_map: dict[int, Packet] = {}
        grouped: dict[int, list[Packet]] = {}
        horizon = -1
        for p in packets:
            id_map[p.id] = p
            grouped.setdefault(p.release, []).append(p)
            if p.deadline > horizon:
                horizon = p.deadline
        self.horizon = horizon
        self._id_map = id_map
        self.arrivals = {t: tuple(ps) for t, ps in grouped.items()}
        self.scale = scale = math.lcm(*[p.value.denominator for p in packets])
        self.weights = {pid: p.value.numerator * (scale // p.value.denominator) for pid, p in id_map.items()}

    def by_id(self, pid: int) -> Packet:
        return self._id_map[pid]

    def __len__(self) -> int:
        return len(self.packets)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.packets == other.packets

    def __hash__(self) -> int:
        return hash((self.packets,))

    def __repr__(self) -> str:
        return f"Instance(packets={self.packets!r})"

    def __reduce__(self):
        return Instance, (self.packets,)


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by validate_instance."""

    packet_id: int | None
    reason: str


def validate_instance(inst: Instance) -> list[Violation]:
    """Check all packet and instance invariants; empty list means valid."""
    out: list[Violation] = []
    seen: set[int] = set()
    for p in inst.packets:
        if p.id in seen:
            out.append(Violation(p.id, "duplicate packet id"))
        seen.add(p.id)
        if p.value <= 0:
            out.append(Violation(p.id, "non-positive value"))
        if p.release < 0:
            out.append(Violation(p.id, "negative release time"))
        if p.deadline < p.release:
            out.append(Violation(p.id, "deadline before release"))
        elif p.deadline - p.release > 1:
            out.append(Violation(p.id, "not 2-bounded"))
    return out


def profit(sched: Mapping[int, int], inst: Instance) -> Rat:
    """Exact total value of a schedule (time slot -> packet id), summed as
    integer weights at the instance's scale.

    Raises InfeasibleScheduleError (naming the offending slot) if the
    schedule repeats a packet or places one outside [release, deadline].
    """
    ids = inst._id_map
    weights = inst.weights
    seen: set[int] = set()
    total = 0
    for t in sorted(sched):
        pid = sched[t]
        if pid not in ids:
            raise InfeasibleScheduleError(f"slot {t}: unknown packet id {pid}")
        if pid in seen:
            raise InfeasibleScheduleError(f"slot {t}: packet {pid} transmitted twice")
        seen.add(pid)
        p = ids[pid]
        if not (p.release <= t <= p.deadline):
            raise InfeasibleScheduleError(
                f"slot {t}: packet {pid} outside its window [{p.release}, {p.deadline}]"
            )
        total += weights[pid]
    return Fraction(total, inst.scale)


# ---------------------------------------------------------------------------
# Instance file format (JSON)
# ---------------------------------------------------------------------------

def instance_from_dict(doc: object) -> Instance:
    """Build an Instance from the JSON document structure.

    Expected shape: {"packets": [{"id": 0, "release": 0, "deadline": 1,
    "value": "3/2"}, ...]}.  The "id" field is optional and defaults to the
    position in the list; explicit ids must be unique.
    """
    if not isinstance(doc, dict) or "packets" not in doc:
        raise InstanceFormatError("expected an object with a 'packets' array")
    raw_packets = doc["packets"]
    if not isinstance(raw_packets, list):
        raise InstanceFormatError("'packets' must be an array")
    packets: list[Packet] = []
    for idx, entry in enumerate(raw_packets):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"packet #{idx}: expected an object")
        try:
            release = entry["release"]
            deadline = entry["deadline"]
            value = entry["value"]
        except KeyError as exc:
            raise InstanceFormatError(f"packet #{idx}: missing field {exc.args[0]!r}") from None
        pid = entry.get("id", idx)
        for name, v in (("id", pid), ("release", release), ("deadline", deadline)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InstanceFormatError(f"packet #{idx}: {name} must be an integer")
        packets.append(Packet(id=pid, release=release, deadline=deadline, value=parse_value(value)))
    inst = Instance(packets)
    if len({p.id for p in inst.packets}) != len(inst.packets):
        raise InstanceFormatError("packet ids are not unique")
    return inst


def instance_to_dict(inst: Instance) -> dict:
    return {
        "packets": [
            {"id": p.id, "release": p.release, "deadline": p.deadline, "value": render_value(p.value)}
            for p in inst.packets
        ]
    }


def load_instance(text: str) -> Instance:
    """Parse an instance from JSON text; errors carry line context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return instance_from_dict(doc)


def dump_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def instance_hash(inst: Instance) -> str:
    """Stable short hash of the canonical instance serialization."""
    canonical = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
