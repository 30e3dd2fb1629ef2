"""Linear systems of degree-d hypersurfaces of P^r with fat base conditions.

The data model covers three kinds of base condition:

* fat points in general position (``2^14``, a triple point ``3``, ...);
* fat linear subspaces, e.g. a codimension-3 subspace along which members
  must be singular;
* fat points constrained to lie on one of the declared subspaces (the
  scheme ``{L, 2^t}``: a subspace together with t general nodes on it).

Systems have a canonical text syntax that round-trips exactly::

    system  = "L(r=" INT ",d=" INT [ "; " conds ] ")"
    conds   = cond { ", " cond }
    cond    = fat | group | fat " on " NAME
    fat     = INT [ "^" INT ]                    multiplicity [ ^ count ]
    group   = "{" NAME ":codim" INT [":mult" INT] { ", " fat " on " NAME } "}"
    NAME    = "L" INT

Examples: ``L(r=3,d=5; 2^14)``, ``L(r=3,d=4; 3, 2^5)``,
``L(r=7,d=3; {L1:codim3, 2^5 on L1}, 2^10)``.

Alongside the model sit the closed-form special cases of the
Alexander-Hirschowitz classification and the symbolic transformations used
by the degeneration arguments (hyperplane restriction, cone reduction,
limit-dimension formulas).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .combinatorics import binom, expected_dim
from .errors import ParseError

# ---------------------------------------------------------------------------
# base conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FatPoint:
    """``count`` general points of the given multiplicity."""

    multiplicity: int
    count: int = 1


@dataclass(frozen=True)
class FatSubspace:
    """A general linear subspace of the given codimension; members must
    vanish along it to order ``multiplicity``."""

    subspace_id: str
    codim: int
    multiplicity: int = 1


@dataclass(frozen=True)
class PointOnSubspace:
    """``count`` general points of the given multiplicity supported on the
    referenced subspace."""

    subspace_id: str
    multiplicity: int
    count: int = 1


BaseCondition = Union[FatPoint, FatSubspace, PointOnSubspace]

_ID_RE = re.compile(r"^L(\d+)$")


def _id_key(subspace_id: str) -> int:
    m = _ID_RE.match(subspace_id)
    if not m:
        raise ValueError(f"subspace ids must look like 'L1', got {subspace_id!r}")
    return int(m.group(1))


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Degree-d hypersurfaces of P^r satisfying a multiset of base conditions.

    Conditions are normalized on construction: equal-multiplicity point
    entries are merged and everything is put in canonical order (subspaces by
    id with their on-subspace points, then loose points by descending
    multiplicity), so structural equality is semantic equality.
    """

    r: int
    d: int
    conditions: tuple[BaseCondition, ...] = ()

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.d < 0:
            raise ValueError(f"need d >= 0, got {self.d}")
        object.__setattr__(self, "conditions", _normalize(self.r, self.conditions))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def nodes(r: int, d: int, n: int, simple: int = 0) -> "LinearSystem":
        """L_{r,d}(2^n, 1^simple)."""
        conds: list[BaseCondition] = []
        if n:
            conds.append(FatPoint(2, n))
        if simple:
            conds.append(FatPoint(1, simple))
        return LinearSystem(r, d, tuple(conds))

    @staticmethod
    def from_mults(r: int, d: int, mults: Iterable[int]) -> "LinearSystem":
        counts: dict[int, int] = {}
        for m in mults:
            counts[m] = counts.get(m, 0) + 1
        return LinearSystem(
            r, d, tuple(FatPoint(m, c) for m, c in sorted(counts.items(), reverse=True))
        )

    @staticmethod
    def parse(text: str) -> "LinearSystem":
        return _parse(text)

    # -- inspection ---------------------------------------------------------

    @property
    def fat_points(self) -> tuple[FatPoint, ...]:
        return tuple(c for c in self.conditions if isinstance(c, FatPoint))

    @property
    def subspaces(self) -> tuple[FatSubspace, ...]:
        return tuple(c for c in self.conditions if isinstance(c, FatSubspace))

    @property
    def points_on_subspaces(self) -> tuple[PointOnSubspace, ...]:
        return tuple(c for c in self.conditions if isinstance(c, PointOnSubspace))

    def is_points_only(self) -> bool:
        return all(isinstance(c, FatPoint) for c in self.conditions)

    def point_count(self, multiplicity: int) -> int:
        return sum(c.count for c in self.fat_points if c.multiplicity == multiplicity)

    def subspace(self, subspace_id: str) -> FatSubspace:
        for c in self.subspaces:
            if c.subspace_id == subspace_id:
                return c
        raise KeyError(subspace_id)

    def monomial_count(self) -> int:
        return binom(self.r + self.d, self.r)

    def conditions_count(self) -> int:
        """Naive (virtual) number of linear conditions imposed."""
        return sum(self._cond_size(c) for c in self.conditions)

    def _cond_size(self, cond: BaseCondition) -> int:
        r, d = self.r, self.d
        if isinstance(cond, FatPoint):
            return cond.count * binom(r + cond.multiplicity - 1, r)
        if isinstance(cond, FatSubspace):
            c, s = cond.codim, r - cond.codim
            total = 0
            for j in range(cond.multiplicity):
                if d - j >= 0:
                    total += binom(c - 1 + j, j) * binom(s + d - j, s)
            return total
        # point on a subspace: only derivative directions not already killed
        # by the subspace's own vanishing order contribute conditions
        sub = self.subspace(cond.subspace_id)
        c, s, mu = sub.codim, r - sub.codim, sub.multiplicity
        total = 0
        for t in range(mu, cond.multiplicity):
            total += binom(c - 1 + t, t) * binom(s + cond.multiplicity - 1 - t, s)
        return cond.count * total

    def virtual_dim(self) -> int:
        return self.monomial_count() - 1 - self.conditions_count()

    def expected_dim(self) -> int:
        return expected_dim(self.virtual_dim())

    def __str__(self) -> str:
        return _format(self)


def _normalize(r: int, conditions: tuple[BaseCondition, ...]) -> tuple[BaseCondition, ...]:
    points: dict[int, int] = {}
    subs: dict[str, FatSubspace] = {}
    on_points: dict[tuple[str, int], int] = {}
    for c in conditions:
        if isinstance(c, FatPoint):
            if c.multiplicity < 1 or c.count < 1:
                raise ValueError(f"bad fat point {c}")
            points[c.multiplicity] = points.get(c.multiplicity, 0) + c.count
        elif isinstance(c, FatSubspace):
            _id_key(c.subspace_id)
            if c.subspace_id in subs:
                raise ValueError(f"duplicate subspace id {c.subspace_id}")
            if not (1 <= c.codim <= r):
                raise ValueError(f"subspace codim must be in [1, r], got {c.codim}")
            if c.multiplicity < 1:
                raise ValueError(f"bad subspace multiplicity {c.multiplicity}")
            subs[c.subspace_id] = c
        elif isinstance(c, PointOnSubspace):
            if c.multiplicity < 1 or c.count < 1:
                raise ValueError(f"bad point-on-subspace {c}")
            key = (c.subspace_id, c.multiplicity)
            on_points[key] = on_points.get(key, 0) + c.count
        else:
            raise TypeError(f"not a base condition: {c!r}")
    for sid, _m in on_points:
        if sid not in subs:
            raise ValueError(f"points reference undeclared subspace {sid}")
    out: list[BaseCondition] = []
    for sid in sorted(subs, key=_id_key):
        out.append(subs[sid])
        for (psid, m), cnt in sorted(on_points.items(), key=lambda kv: (_id_key(kv[0][0]), -kv[0][1])):
            if psid == sid:
                out.append(PointOnSubspace(sid, m, cnt))
    for m in sorted(points, reverse=True):
        out.append(FatPoint(m, points[m]))
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical syntax
# ---------------------------------------------------------------------------


def _fmt_fat(mult: int, count: int) -> str:
    return f"{mult}^{count}" if count != 1 else f"{mult}"


def _format(sys: LinearSystem) -> str:
    parts: list[str] = []
    for sub in sys.subspaces:
        inner = [f"{sub.subspace_id}:codim{sub.codim}"]
        if sub.multiplicity != 1:
            inner[0] += f":mult{sub.multiplicity}"
        for p in sys.points_on_subspaces:
            if p.subspace_id == sub.subspace_id:
                inner.append(f"{_fmt_fat(p.multiplicity, p.count)} on {p.subspace_id}")
        parts.append("{" + ", ".join(inner) + "}")
    for fp in sys.fat_points:
        parts.append(_fmt_fat(fp.multiplicity, fp.count))
    head = f"L(r={sys.r},d={sys.d}"
    return head + ("; " + ", ".join(parts) + ")" if parts else ")")


_HEAD_RE = re.compile(r"^L\(\s*r\s*=\s*(\d+)\s*,\s*d\s*=\s*(\d+)\s*(?:;(.*))?\)$")
_FAT_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")
_ON_RE = re.compile(r"^(\d+)(?:\^(\d+))?\s+on\s+(L\d+)$")
_SUB_RE = re.compile(r"^(L\d+)\s*:\s*codim\s*(\d+)(?:\s*:\s*mult\s*(\d+))?$")


def _split_top(text: str) -> list[str]:
    """Split on commas that are not inside braces."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced '}'")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '{'")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse(text: str) -> LinearSystem:
    m = _HEAD_RE.match(text.strip())
    if not m:
        raise ParseError(f"cannot parse system: {text!r}")
    r, d = int(m.group(1)), int(m.group(2))
    body = m.group(3) or ""
    conds: list[BaseCondition] = []
    for part in _split_top(body):
        if part.startswith("{"):
            if not part.endswith("}"):
                raise ParseError(f"bad group: {part!r}")
            items = _split_top(part[1:-1])
            if not items:
                raise ParseError("empty group")
            ms = _SUB_RE.match(items[0])
            if not ms:
                raise ParseError(f"bad subspace declaration: {items[0]!r}")
            sid = ms.group(1)
            conds.append(FatSubspace(sid, int(ms.group(2)), int(ms.group(3) or 1)))
            for item in items[1:]:
                mo = _ON_RE.match(item)
                if not mo:
                    raise ParseError(f"bad on-subspace condition: {item!r}")
                conds.append(PointOnSubspace(mo.group(3), int(mo.group(1)), int(mo.group(2) or 1)))
            continue
        mo = _ON_RE.match(part)
        if mo:
            conds.append(PointOnSubspace(mo.group(3), int(mo.group(1)), int(mo.group(2) or 1)))
            continue
        mf = _FAT_RE.match(part)
        if mf:
            conds.append(FatPoint(int(mf.group(1)), int(mf.group(2) or 1)))
            continue
        raise ParseError(f"bad condition: {part!r}")
    try:
        return LinearSystem(r, d, tuple(conds))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


parse_system = _parse


# ---------------------------------------------------------------------------
# the classification table (data, not code branches)
# ---------------------------------------------------------------------------

#: sporadic special systems of double points: (r, d, n) -> (tag, actual dim)
SPORADIC_EXCEPTIONS: dict[tuple[int, int, int], tuple[str, int]] = {
    (2, 4, 5): ("Quartic2", 0),
    (3, 4, 9): ("Quartic3", 0),
    (4, 4, 14): ("Quartic4", 0),
    (4, 3, 7): ("Cubic4", 0),
}


@dataclass(frozen=True)
class SpecialVerdict:
    is_exception: bool
    closed_form_dim: int | None = None
    exception_tag: str | None = None

    def __post_init__(self) -> None:
        if self.is_exception != (self.closed_form_dim is not None):
            raise ValueError("closed_form_dim present iff exceptional")


def classify(r: int, d: int, n: int) -> SpecialVerdict:
    """Special-case classification of the system of n double points in P^r.

    Exceptional exactly for d = 2 with 2 <= n <= r (quadric cones over the
    span of the nodes) and the four sporadic rows; quadrics with n >= r+1
    nodes are empty but not special.
    """
    if r < 1 or d < 0 or n < 0:
        raise ValueError(f"bad arguments ({r}, {d}, {n})")
    if d == 2 and 2 <= n <= r:
        return SpecialVerdict(True, binom(r - n + 2, 2) - 1, "Quadric")
    row = SPORADIC_EXCEPTIONS.get((r, d, n))
    if row is not None:
        return SpecialVerdict(True, row[1], row[0])
    return SpecialVerdict(False)


def classify_system(sys: LinearSystem) -> SpecialVerdict:
    """classify() for a system given as data; rejects anything but uniform
    double points."""
    if not sys.is_points_only() or any(fp.multiplicity != 2 for fp in sys.fat_points):
        raise ValueError("classification table covers collections of double points only")
    return classify(sys.r, sys.d, sys.point_count(2))


def quadric_dim(r: int, n: int, simple: int = 0) -> int:
    """Actual dimension of L_{r,2}(2^n, 1^simple), any n, s >= 0.

    For n >= 1 the system consists of quadric cones whose vertex contains
    the span of the nodes, so it matches the complete quadric system of
    P^{r-n}, and it is empty once the nodes span P^r (n > r); general
    simple points then impose independent conditions until the system
    empties.
    """
    if r < 1 or n < 0 or simple < 0:
        raise ValueError(f"bad arguments ({r}, {n}, {simple})")
    return max(binom(max(r - n + 2, 0), 2) - 1 - simple, -1)


def planar_dim(d: int, n: int, simple: int = 0) -> int:
    """Actual dimension of L_{2,d}(2^n, 1^simple); the planar case is
    classical.  Non-special except for two nodes on conics and five nodes on
    quartics, whose unique members (the double line, the double conic) are
    killed by one further general point."""
    if d < 0 or n < 0 or simple < 0:
        raise ValueError(f"bad arguments ({d}, {n}, {simple})")
    if d == 2:
        return quadric_dim(2, n, simple)
    if (d, n) == (4, 5):
        return max(0 - simple, -1)
    return max(binom(d + 2, 2) - 1 - 3 * n - simple, -1)


# ---------------------------------------------------------------------------
# symbolic transformations
# ---------------------------------------------------------------------------


def _points_map(sys: LinearSystem) -> dict[int, int]:
    if not sys.is_points_only():
        raise ValueError("transformation requires a points-only system")
    return {fp.multiplicity: fp.count for fp in sys.fat_points}


def castelnuovo_split(sys: LinearSystem, h: int) -> tuple[LinearSystem, LinearSystem]:
    """Restrict to a hyperplane through h of the double points.

    Splits the system into the kernel (degree drops by one; the h
    specialized double points lose one order of vanishing) and the trace
    (ambient dimension drops by one; the h points restrict as double
    points).  Only double points are specialized; every other point stays
    general, so it passes to the kernel unchanged.
    """
    if sys.r < 2 or sys.d < 1:
        raise ValueError("need r >= 2 and d >= 1 to restrict to a hyperplane")
    counts = _points_map(sys)
    n_double = counts.get(2, 0)
    if not (0 <= h <= n_double):
        raise ValueError(f"cannot specialize {h} of {n_double} double points")
    counts[2] = n_double - h
    if h:
        counts[1] = counts.get(1, 0) + h
    kernel = LinearSystem(
        sys.r, sys.d - 1, tuple(FatPoint(m, c) for m, c in counts.items() if c)
    )
    trace = LinearSystem(sys.r - 1, sys.d, (FatPoint(2, h),) if h else ())
    return kernel, trace


def cone_reduce(sys: LinearSystem) -> LinearSystem:
    """Project a system with a d-fold point down one dimension.

    A degree-d hypersurface with a point of multiplicity d is a cone with
    vertex there; projecting from the vertex identifies the system with one
    in P^{r-1} carrying the remaining point conditions.  Sections correspond
    exactly, so the two systems have equal h^0 (non-speciality does not
    transfer: the cone system is special whenever nonempty).
    """
    if sys.r < 2:
        raise ValueError("cone reduction needs r >= 2")
    counts = dict(_points_map(sys))
    if counts.get(sys.d, 0) < 1:
        raise ValueError(f"no point of multiplicity d = {sys.d} present")
    counts[sys.d] -= 1
    rest = tuple(FatPoint(m, c) for m, c in counts.items() if c >= 1)
    return LinearSystem(sys.r - 1, sys.d, rest)


def limit_dim(dim_r: int, l_hat_p: int, l_hat_f: int) -> int:
    """Dimension of the limit system: dim R + dim of both kernels + 2.

    Sections of the limit bundle are glued from a matching section on the
    intersection plus arbitrary kernel sections on either component.
    """
    for x in (dim_r, l_hat_p, l_hat_f):
        if x < -1:
            raise ValueError(f"dimensions must be >= -1, got {x}")
    return dim_r + l_hat_p + l_hat_f + 2


def transversal_intersection_dim(r_p: int, r_f: int, ambient: int) -> int:
    """dim of the intersection of two transversal subsystems of the degree
    (d-1) series on P^{r-1}; ``ambient`` is h^0 of that series,
    C(d+r-2, r-1)."""
    if r_p < -1 or r_f < -1:
        raise ValueError("restricted dimensions must be >= -1")
    if ambient < 1:
        raise ValueError(f"ambient h^0 must be >= 1, got {ambient}")
    return max(r_p + r_f - ambient + 1, -1)


# ---------------------------------------------------------------------------
# multiset comparison used by the monotonicity rules
# ---------------------------------------------------------------------------


def dominates(stronger: LinearSystem, weaker: LinearSystem) -> bool:
    """True if ``stronger`` imposes the conditions of ``weaker`` and possibly
    more: same (r, d) and, for each multiplicity t of ``weaker``, at least as
    many points of multiplicity >= t.  This is the entrywise test on the
    sorted multiplicity lists, without expanding the counts.  Points-only
    systems.
    """
    if (stronger.r, stronger.d) != (weaker.r, weaker.d):
        return False
    if not (stronger.is_points_only() and weaker.is_points_only()):
        raise ValueError("dominates() only applies to points-only systems")

    def at_least(s: LinearSystem, t: int) -> int:
        return sum(c.count for c in s.fat_points if c.multiplicity >= t)

    ts = [c.multiplicity for c in weaker.fat_points]
    return all(at_least(stronger, t) >= at_least(weaker, t) for t in ts)
